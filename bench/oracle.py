"""Reference L-values computed without the library's numerical layers.

Nothing here uses ``qseries``, ``form``, ``testfn`` or
``specials.upper_gamma``.  Each value is the integral

    L_f(phi) = int f(iy) phi(y) dy

taken with ``scipy.integrate.quad`` over the support of phi, with f(iy)
evaluated from a closed form rather than from stored Fourier coefficients:

- Delta(z) = q prod_{n>=1} (1 - q^n)^24 (the eta product), q = e^{2 pi i z};
- theta(z) = sum_{n in Z} q^{n^2}, so theta(iy) = sum_n e^{-2 pi n^2 y};
- the twist by chi mod D as f_chi(z) = sum_u conj(chi(u)) f((z + u)/D);
- the harmonic form g of the benchmark (weight -10, shadow Delta) with its
  nonholomorphic terms Gamma(11, 4 pi n y) e^{2 pi n y} taken in mpmath, so
  the product neither underflows nor overflows;
- the bump exp(4/w^2 - 1/((y - c1)(c2 - y))) on (c1, c2), and its slash
  (phi|_a W_N)(y) = (N y)^{-a} phi(1/(N y)), written out directly.

A character is passed as its value table (``values[u] = chi(u)``), so the
caller may take it from ``specials.characters_mod``.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
from scipy.integrate import IntegrationWarning, quad

_TWO_PI = 2.0 * math.pi
_EPSREL = 1e-13
_LIMIT = 400
_TERM_FLOOR = 46.0  # |q|^n below e^-46 ~ 1e-20 no longer changes a double


class Bump:
    """exp(4/w^2 - 1/((y - c1)(c2 - y))) on (c1, c2), peak value 1.

    ``a`` and ``N`` apply the slash |_a W_N, which maps the support to
    (1/(N c2), 1/(N c1)).
    """

    def __init__(self, c1: float, c2: float, a: float | None = None, N: int = 1):
        self.c1, self.c2, self.a, self.N = float(c1), float(c2), a, int(N)

    def support(self) -> tuple[float, float]:
        if self.a is None:
            return self.c1, self.c2
        return 1.0 / (self.N * self.c2), 1.0 / (self.N * self.c1)

    def slash(self, a: float, N: int) -> "Bump":
        return Bump(self.c1, self.c2, float(a), N)

    def __call__(self, y: float) -> float:
        if self.a is not None:
            x = 1.0 / (self.N * y)
            return (self.N * y) ** (-self.a) * Bump(self.c1, self.c2)(x)
        if not self.c1 < y < self.c2:
            return 0.0
        w = self.c2 - self.c1
        return math.exp(4.0 / (w * w) - 1.0 / ((y - self.c1) * (self.c2 - y)))


def battery_bump(j: int) -> Bump:
    """Member j of the standard battery: support [2^(j/2-2), 2^(j/2-1)]."""
    c1 = 0.25 * math.sqrt(2.0) ** j
    return Bump(c1, 2.0 * c1)


def delta(zs: np.ndarray) -> np.ndarray:
    """Delta at points of the upper half plane, from the eta product."""
    zs = np.asarray(zs, dtype=complex)
    q = np.exp(2j * math.pi * zs)
    n_max = int(_TERM_FLOOR / (_TWO_PI * float(np.min(zs.imag)))) + 2
    ns = np.arange(1, n_max + 1)
    log_prod = np.sum(np.log1p(-np.power.outer(q, ns)), axis=-1)
    return np.exp(2j * math.pi * zs + 24.0 * log_prod)


def theta(zs: np.ndarray) -> np.ndarray:
    """theta(z) = sum over all integers n of e^{2 pi i n^2 z}."""
    zs = np.asarray(zs, dtype=complex)
    n_max = int(math.sqrt(_TERM_FLOOR / (_TWO_PI * float(np.min(zs.imag))))) + 2
    ns = np.arange(1, n_max + 1)
    return 1.0 + 2.0 * np.sum(np.exp(2j * math.pi * np.multiply.outer(zs, ns * ns)), axis=-1)


def twisted(f, chi_values, y: float) -> complex:
    """f_chi(iy) = sum_u conj(chi(u)) f((iy + u)/D)."""
    vals = np.asarray(chi_values, dtype=complex)
    D = len(vals)
    us = np.nonzero(vals)[0]
    zs = (us + 1j * y) / D
    return complex(np.sum(np.conj(vals[us]) * f(zs)))


def tau(n_max: int) -> list[int]:
    """tau(1..n_max) from q prod (1 - q^n)^24, in exact integers."""
    poly = [1] + [0] * (n_max - 1)  # coefficients of q^0 .. q^(n_max-1)
    for n in range(1, n_max):
        for _ in range(24):
            for i in range(n_max - 1, n - 1, -1):
                poly[i] -= poly[i - n]
    return poly  # poly[i] = tau(i + 1)


def harmonic_g(a: dict[int, complex], shadow: dict[int, complex], k: int, y: float) -> complex:
    """g(iy) for weight 2 - k with b(-n) = -conj(shadow[n]) (4 pi n)^{1-k}.

    g(iy) = sum_n a(n) e^{-2 pi n y}
          + sum_n b(-n) Gamma(k - 1, 4 pi n y) e^{2 pi n y}.
    """
    acc = mpmath.mpc(0)
    yy = mpmath.mpf(y)
    for n, av in a.items():
        acc += mpmath.mpc(av) * mpmath.exp(-2 * mpmath.pi * n * yy)
    for n, sv in shadow.items():
        b = -mpmath.conj(mpmath.mpc(sv)) * (4 * mpmath.pi * n) ** (1 - k)
        x = 4 * mpmath.pi * n * yy
        acc += b * mpmath.gammainc(k - 1, x) * mpmath.exp(x / 2)
    return complex(acc)


def lvalue(fy, phi: Bump, scale: float = 0.0) -> complex:
    """int f(iy) phi(y) dy over the support of phi, for a callable fy(y).

    The real and imaginary parts are integrated separately, each to a
    tolerance relative to the mass int |f(iy) phi(y)| dy, or to ``scale``
    when that is larger: one part is often zero up to rounding, and a
    relative target on it alone cannot be met.
    """
    lo, hi = phi.support()
    cache: dict[float, complex] = {}

    def integrand(y: float) -> complex:
        if y not in cache:
            cache[y] = fy(y) * phi(y)
        return cache[y]

    mass, _ = quad(lambda y: abs(integrand(y)), lo, hi, epsrel=1e-3, limit=_LIMIT)
    mass = max(mass, scale)
    parts = []
    with warnings.catch_warnings():  # the error estimate is checked below
        warnings.simplefilter("ignore", IntegrationWarning)
        for part in (lambda y: integrand(y).real, lambda y: integrand(y).imag):
            v, err = quad(part, lo, hi, epsabs=1e-15 * mass, epsrel=_EPSREL, limit=_LIMIT)
            if err > 1e-12 * mass:
                raise ArithmeticError(f"oracle quadrature error {err:.1e} against mass {mass:.1e}")
            parts.append(v)
    return complex(*parts)


def twisted_lvalue(f, chi_values, phi: Bump, scale: float = 0.0) -> complex:
    """L_{f_chi}(phi) for f = ``delta`` or ``theta``."""
    return lvalue(lambda y: twisted(f, chi_values, y), phi, scale)


def twist_mass(f, chi_values, phi: Bump) -> float:
    """int sum_u |f((iy + u)/D)| phi(y) dy: the size of the terms a twist adds.

    A twisted value far below this mass is zero up to rounding.
    """
    vals = np.asarray(chi_values, dtype=complex)
    D = len(vals)
    us = np.nonzero(vals)[0]
    return lvalue(lambda y: float(np.sum(np.abs(f((us + 1j * y) / D)))), phi).real
