"""Special-function kernel tests: incomplete gamma with continuation, the
Whittaker kernel, Bessel J, Kronecker symbol, characters and Gauss sums."""

import math
from fractions import Fraction

import numpy as np
import pytest

from maass_lseries import specials, verify

from maass_lseries.errors import AccuracyError, DomainError, RangeOverflowError
from maass_lseries.specials import (
    bessel_J_grid,
    characters_mod,
    epsilon_d,
    euler_phi,
    gauss_sum,
    i_pow,
    kronecker,
    kronecker_character,
    trivial_character,
    upper_gamma,
    upper_gamma_scaled,
    _gamma_half_exp,
    _principal_pow,
    _whittaker_kernel,
)
from maass_lseries.testfn import TestFunction, quadrature


# ---------------------------------------------------------------------------
# incomplete gamma


def test_gamma_closed_forms():
    # Gamma(1, x) = e^{-x}, both signs of x
    assert abs(upper_gamma(1, 2.0) - math.exp(-2)) < 1e-15
    assert abs(upper_gamma(1, -1.0) - math.e) < 1e-14
    # Gamma(2, x) = (1 + x) e^{-x} by parts
    assert abs(upper_gamma(2, 1.0) - 2 / math.e) < 1e-15
    assert abs(upper_gamma(2, -2.0) - (-math.e ** 2)) < 1e-13


def test_gamma_quadrature_oracle_half_power():
    # integral of e^{-t} t^{-1/2} from 0.25 to infinity, independent oracle
    ref, _ = quadrature(
        lambda t: np.exp(-t) * t ** (-0.5), 0.25, math.inf,
        rel_tol=1e-13, decay_rate=1.0, vectorized=True,
    )
    val = upper_gamma(0.5, 0.25)
    assert abs(val - ref) < 1e-12 * abs(ref)


def test_gamma_quadrature_oracle_random_samples():
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = complex(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0))
        x = rng.uniform(0.1, 10.0)
        ref, _ = quadrature(
            lambda t: np.exp(-t + (s - 1.0) * np.log(t)), x, math.inf,
            rel_tol=1e-13, decay_rate=1.0, vectorized=True,
        )
        val = upper_gamma(s, x)
        assert abs(val - ref) <= 1e-10 * max(abs(ref), 1e-300)


def test_gamma_recurrence_random_complex():
    # Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}, principal branch
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        x = rng.uniform(0.1, 10.0) * (1 if rng.integers(2) else -1)
        lhs = upper_gamma(s + 1, x)
        rhs = s * upper_gamma(s, x) + _principal_pow(x, s) * math.exp(-x)
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


def test_gamma_recurrence_negative_integer_orders():
    for x in (0.3, 2.0, 9.5, -0.7, -6.0):
        for m in range(-11, 3):
            lhs = upper_gamma(m + 1, x)
            rhs = m * upper_gamma(m, x) + _principal_pow(x, m) * math.exp(-x)
            assert abs(lhs - rhs) < 1e-11 * (1.0 + abs(lhs))


def test_gamma_bridge_region_consistency():
    # recurrence far out on the negative axis, x <= -11
    for s in (0.6 + 0.8j, 2.5, -1.3 + 0.2j):
        for x in (-11.0, -15.0, -40.0):
            lhs = upper_gamma(s + 1, x)
            rhs = s * upper_gamma(s, x) + _principal_pow(x, s) * math.exp(-x)
            assert abs(lhs - rhs) < 1e-11 * abs(lhs)


def test_gamma_half_order_erfc_closed_form():
    # Gamma(1/2, x) = sqrt(pi) erfc(sqrt(x)) for x > 0
    for x in (0.1, 0.25, 1.0, 4.0, 20.0):
        expect = math.sqrt(math.pi) * math.erfc(math.sqrt(x))
        assert abs(upper_gamma(0.5, x) - expect) < 1e-13 * max(expect, 1e-300)


def test_gamma_negative_real_order_quadrature():
    # noninteger negative order, positive argument: straight tail integral
    for s in (-0.5, -2.5):
        for x in (0.5, 1.0, 6.0):
            ref, _ = quadrature(
                lambda t: np.exp(-t + (s - 1.0) * np.log(t)), x, math.inf,
                rel_tol=1e-13, decay_rate=1.0, vectorized=True,
            )
            assert abs(upper_gamma(s, x) - ref) < 1e-11 * abs(ref)


def test_gamma_domain_and_range_errors():
    with pytest.raises(DomainError):
        upper_gamma(-1.0, 0.0)
    with pytest.raises(DomainError):
        upper_gamma(0.0, 0.0)
    assert abs(upper_gamma(2.0, 0.0) - 1.0) < 1e-15  # Gamma(2) = 1
    with pytest.raises(RangeOverflowError):
        upper_gamma(1.5, -800.0)
    with pytest.raises(RangeOverflowError):
        upper_gamma(-170, 1e-3)  # about 1e508


# ---------------------------------------------------------------------------
# Whittaker kernel


def test_whittaker_closed_form_sinh():
    # at k = 2 the kernel is 2 M_{0,1/2}(z) = 4 sinh(z/2)
    zs = np.array([0.3, 1.0, 5.0, 20.0])
    assert np.all(np.abs(_whittaker_kernel(2, zs) - 4 * np.sinh(zs / 2)) < 2e-13 * np.cosh(zs / 2))


def test_whittaker_small_z_leading_term():
    # the kernel / ((2^k - 2) z^{k/2}) -> 1 as z -> 0+
    z = 1e-8
    for k in (2, 4, 12):
        ratio = _whittaker_kernel(k, z)[0] / ((2.0 ** k - 2.0) * z ** (0.5 * k))
        assert abs(ratio - 1.0) < 1e-6, k


def test_whittaker_long_series_oracle():
    # independently coded 200-term confluent series of each M-function of
    # the k = 12 kernel at n = 1 (mu = 11/2, z = 2 pi)
    k, z = 12, 2 * math.pi
    mu, b = 0.5 * (k - 1), k
    oracle = 0.0
    for l in range(k - 1):
        kappa = 1 - 0.5 * k + l
        a = mu - kappa + 0.5
        term, acc = 1.0, 1.0
        for j in range(200):
            term *= (a + j) * z / ((b + j) * (j + 1))
            acc += term
        oracle += 2 ** (l + 1) * math.exp(-z / 2) * z ** (mu + 0.5) * acc
    assert abs(_whittaker_kernel(k, z)[0] - oracle) < 1e-10 * abs(oracle)


def test_whittaker_domain_error():
    for z in (-1.0, math.nan):
        with pytest.raises(DomainError):
            _whittaker_kernel(4, z)


def test_whittaker_out_of_range():
    # where the seed e^{-z/2} z^{k/2} underflows at small z the kernel is 0
    assert _whittaker_kernel(12, np.array([1e-60, 1.0]))[0] == 0.0


# ---------------------------------------------------------------------------
# Bessel J


def test_bessel_basics():
    assert bessel_J_grid(0, 0.0) == 1.0
    assert bessel_J_grid(3, 0.0) == 0.0
    # first zero of J_0
    assert abs(bessel_J_grid(0, 2.404825557695773)) < 1e-10


def test_bessel_ascending_series_oracle():
    # 50-term ascending series, coded independently
    def oracle(n, x):
        acc = 0.0
        for m in range(50):
            acc += (-1) ** m * (x / 2) ** (n + 2 * m) / (
                math.factorial(m) * math.factorial(n + m)
            )
        return acc

    for n, x in ((11, 1.0), (0, 3.0), (4, 7.5)):
        assert abs(bessel_J_grid(n, x) - oracle(n, x)) < 1e-13


def test_bessel_series_vs_miller_crossover():
    # neighbouring regimes agree across their switches: the ascending series
    # and the Miller sweep at x = 1, the sweep and Hankel's expansion at
    # max(20, n)
    from maass_lseries.specials import _bessel_j_hankel, _bessel_j_miller, _bessel_j_series

    xs = np.linspace(0.9, 1.1, 21)
    for n in (0, 1, 5, 11):
        assert np.max(np.abs(_bessel_j_series(n, xs) - _bessel_j_miller(n, xs))) < 4e-16, n
    for n in (0, 1, 5, 11, 20, 40):
        xs = max(20.0, n) + np.linspace(-0.5, 0.5, 21)
        assert np.max(np.abs(_bessel_j_hankel(n, xs) - _bessel_j_miller(n, xs))) < 1.5e-15, n


def test_bessel_large_argument():
    # J_1(x) ~ sqrt(2/(pi x)) cos(x - 3 pi/4) cross-check at x = 100
    x = 100.0
    lead = math.sqrt(2 / (math.pi * x)) * math.cos(x - 0.75 * math.pi)
    assert abs(bessel_J_grid(1, x) - lead) < 2e-3  # leading asymptotic only
    with pytest.raises(DomainError):
        bessel_J_grid(-1, 1.0)


# ---------------------------------------------------------------------------
# Kronecker symbol, epsilon


def _legendre(a, p):
    # Euler criterion, odd prime p
    r = pow(a % p, (p - 1) // 2, p)
    return {0: 0, 1: 1, p - 1: -1}[r]


def test_kronecker_against_legendre():
    for p in (3, 5, 7, 11, 13, 31, 59):
        for a in range(-20, 21):
            assert kronecker(a, p) == _legendre(a, p)


def test_kronecker_multiplicative_exhaustive():
    # (c1 c2 | d) = (c1 | d)(c2 | d); a zero factor with d = -1 is the one
    # classical exception ((0|-1) = 1 by convention), so keep c nonzero
    for d in range(-60, 61):
        for c1 in range(-12, 13):
            if c1 == 0:
                continue
            for c2 in range(-12, 13):
                if c2 == 0:
                    continue
                assert kronecker(c1 * c2, d) == kronecker(c1, d) * kronecker(c2, d)
    # zero factors still multiply once |d| > 1 (both sides vanish)
    for d in (-60, -7, 5, 60):
        assert kronecker(0, d) == 0


def test_kronecker_edge_conventions():
    assert all(kronecker(1, d) == 1 for d in range(-60, 61) if d != 0)
    assert all(kronecker(c, 1) == 1 for c in range(-60, 61))
    assert kronecker(2, 3) == -1
    assert kronecker(0, 1) == 1 and kronecker(0, 5) == 0
    assert kronecker(3, 2) == -1 and kronecker(7, 2) == 1


def test_epsilon_d():
    assert epsilon_d(1) == 1
    assert epsilon_d(3) == 1j
    assert epsilon_d(5) == 1
    for d in (-7, -3, 1, 3, 5, 9, 11, 15):
        assert epsilon_d(d) ** 2 == kronecker(-1, d)
    with pytest.raises(DomainError):
        epsilon_d(4)


def test_i_pow():
    for k in range(-8, 9):
        assert i_pow(k) == (1j) ** (k % 4)


# ---------------------------------------------------------------------------
# characters and Gauss sums


def test_character_counts_and_triviality():
    for d in (1, 2, 3, 4, 5, 8, 9, 12, 16, 24, 30):
        chars = characters_mod(d)
        assert len(chars) == euler_phi(d)
        assert chars[0].is_trivial


def test_characters_mod_1():
    (chi,) = characters_mod(1)
    assert chi(0) == 1 and chi(17) == 1
    assert gauss_sum(chi, 5) == 1


def test_characters_mod_5_legendre_member():
    chars = characters_mod(5)
    real = [c for c in chars if not c.is_trivial and np.all(np.abs(c.values.imag) < 1e-12)]
    assert len(real) == 1
    leg = real[0]
    for a in range(1, 5):
        assert abs(leg(a) - _legendre(a, 5)) < 1e-12


def test_characters_mod_8_all_real():
    chars = characters_mod(8)
    assert len(chars) == 4
    for c in chars:
        assert np.all(np.abs(c.values.imag) < 1e-12)


def test_character_multiplicativity_and_unit_modulus():
    for d in (7, 12, 15):
        for chi in characters_mod(d):
            for u in range(1, d):
                for v in range(1, d):
                    if math.gcd(u, d) == 1 and math.gcd(v, d) == 1:
                        assert abs(chi(u) * chi(v) - chi(u * v)) < 1e-12
                        assert abs(abs(chi(u)) - 1) < 1e-12
                assert chi(u) == 0 or math.gcd(u, d) == 1


def test_character_orthogonality_exact():
    for d in range(1, 31):
        chars = characters_mod(d)
        phi = euler_phi(d)
        for c1 in chars:
            for c2 in chars:
                s = np.sum(c1.values * np.conj(c2.values))
                expect = phi if c1.index == c2.index else 0.0
                assert abs(s - expect) < 1e-12


def test_conjugate_and_product():
    for d in (5, 7, 12):
        for chi in characters_mod(d):
            cj = chi.conjugate()
            assert np.max(np.abs(cj.values - np.conj(chi.values))) < 1e-12
            prod = chi * cj
            assert prod.is_trivial


def test_gauss_sum_values():
    # Legendre mod 5 at n=1 gives sqrt(5)
    leg5 = [c for c in characters_mod(5) if not c.is_trivial
            and np.all(np.abs(c.values.imag) < 1e-12)][0]
    assert abs(gauss_sum(leg5, 1) - math.sqrt(5)) < 1e-12
    # trivial character mod 2 at n=1: single term u=1, e^{i pi}
    assert abs(gauss_sum(trivial_character(2), 1) - (-1)) < 1e-12


def test_gauss_sum_primitive_magnitude():
    for d in range(1, 51):
        for chi in characters_mod(d):
            if chi.is_primitive:
                assert abs(abs(gauss_sum(chi, 1)) - math.sqrt(d)) < 1e-10


def test_gauss_sum_primitive_twist_factorization():
    # tau_chi(n) = conj(chi)(n) tau_chi(1) for primitive chi, gcd(n, D) = 1
    for d in (5, 7, 8, 9, 12):
        for chi in characters_mod(d):
            if not chi.is_primitive:
                continue
            t1 = gauss_sum(chi, 1)
            for n in range(1, d):
                if math.gcd(n, d) == 1:
                    assert abs(gauss_sum(chi, n) - np.conj(chi(n)) * t1) < 1e-10


def _kronecker_reference(a: int, n: int) -> int:
    """(a|n) from its definition: completely multiplicative in n, Euler's
    criterion at odd primes, the 2-adic rule at 2, the sign rule at -1."""
    if n == 0:
        return 1 if abs(a) == 1 else 0
    out = -1 if n < 0 and a < 0 else 1
    n = abs(n)
    p = 2
    while n > 1:
        while n % p == 0:
            n //= p
            if p == 2:
                out *= 0 if a % 2 == 0 else (1 if a % 8 in (1, 7) else -1)
            else:
                r = pow(a % p, (p - 1) // 2, p)
                out *= 0 if r == 0 else (1 if r == 1 else -1)
        p += 1
    return out


def test_kronecker_against_its_definition():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.integers(-10**6, 10**6), st.integers(-10**4, 10**4), st.integers(-10**3, 10**3))
    def check(a, n, m):
        assert kronecker(a, n) == _kronecker_reference(a, n)
        if n != 0 and m != 0:
            assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)

    check()


def test_gauss_sum_against_a_direct_sum():
    pytest.importorskip("hypothesis")
    mp = pytest.importorskip("mpmath")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.integers(0, 10**6), st.integers(-10**6, 10**6))
    def check(d, pick, n):
        chars = characters_mod(d)
        chi = chars[pick % len(chars)]
        with mp.workdps(30):
            ref = complex(mp.fsum(
                mp.mpc(complex(chi.values[u])) * mp.expjpi(mp.mpf(2 * n * u) / d)
                for u in range(d)
            ))
        assert abs(gauss_sum(chi, n) - ref) <= 1e-12 * d

    check()


def test_gauss_sum_primitive_magnitude_sweep():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 120), st.integers(0, 10**6))
    def check(d, pick):
        primitive = [c for c in characters_mod(d) if c.is_primitive]
        assume(primitive)
        chi = primitive[pick % len(primitive)]
        assert abs(abs(gauss_sum(chi, 1)) - math.sqrt(d)) <= 1e-12 * d

    check()


def test_kronecker_character_matches_symbol():
    for d in (1, 3, 5, 9, 15):
        chi = kronecker_character(d)
        for u in range(d if d > 1 else 1):
            assert abs(chi(u) - kronecker(u, d)) < 1e-12


def test_kronecker_character_is_cached_and_found_by_the_search():
    for d in range(1, 200, 2):
        chi = kronecker_character(d)
        assert kronecker_character(d) is chi
        # the linear search over the characters mod d, run afresh
        target = np.array([kronecker(u, d) if math.gcd(u, d) == 1 else 0 for u in range(d)])
        found = [c for c in characters_mod(d) if np.max(np.abs(c.values - target)) < 1e-9]
        assert found == [chi], d


# ---------------------------------------------------------------------------
# exponentially scaled incomplete gamma


def test_upper_gamma_scaled_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    for s in (11, 1, 0, -1, -11, 0.5, -3.5, 2.5 + 1j, 30.5):
        for x in (0.1, 1.0, 1.9, 5.0, 50.0, 709.0, 800.0, 1500.0):
            with mp.workdps(40):
                ref = complex(mp.gammainc(mp.mpc(s), x) * mp.exp(x))
            assert abs(upper_gamma_scaled(s, x) - ref) <= 1e-13 * abs(ref), (s, x)


def test_upper_gamma_orders_next_to_nonpositive_integers():
    # s = -n +- delta at 0 < x < max(Re s + 2, 1), where the shift down from
    # Re s in [1, 2) divided by s + n = +-delta: 7.6e-6 off at delta = 1e-9
    mp = pytest.importorskip("mpmath")
    orders = [-n + sign * delta for n in range(4) for delta in (1e-3, 1e-6, 1e-9) for sign in (1, -1)]
    for s in orders + [1e-6j, -1 + 1e-4 - 1e-4j, -2 - 0.3 + 0.2j]:
        top = max(s.real + 2, 1.0)
        for x in top * np.array([1e-6, 1e-3, *np.linspace(0.0, 1.0, 17)[1:-1]]):
            with mp.workdps(40):
                ref = mp.gammainc(mp.mpc(s), x)
                ref_scaled = complex(ref * mp.exp(x))
            assert abs(upper_gamma(s, x) - complex(ref)) <= 1e-14 * abs(complex(ref)), (s, x)
            assert abs(upper_gamma_scaled(s, x) - ref_scaled) <= 1e-14 * abs(ref_scaled), (s, x)


def test_upper_gamma_continued_fraction_near_x_1():
    # the forward (Lentz) evaluation alone was 9.2e-15 off at s = -1.000001,
    # x = 1.15 and 1.0e-14 at s = -2.1 + 0.3i, x = 1.01
    mp = pytest.importorskip("mpmath")
    orders = [complex(a, b) for a in (-3.4, -2.1, -1.5, -1.25, -1.000001) for b in (0.0, 0.3, -1.0)]
    points = [(-1.000001, 1.15), (-2.1 + 0.3j, 1.01)]
    for s, x in points + [(s, x) for s in orders for x in np.linspace(1.0, 3.0, 21)]:
        with mp.workdps(40):
            ref = mp.gammainc(mp.mpc(s), x)
            ref_scaled = complex(ref * mp.exp(x))
        assert abs(upper_gamma(s, x) - complex(ref)) <= 1e-15 * abs(complex(ref)), (s, x)
        assert abs(upper_gamma_scaled(s, x) - ref_scaled) <= 1e-15 * abs(ref_scaled), (s, x)


def test_upper_gamma_negative_integer_order_at_large_x():
    # the downward recurrence from Gamma(0, x) cancels about a factor x per
    # step; at x = 50 eleven steps used to leave 1e-5 relative accuracy
    mp = pytest.importorskip("mpmath")
    for s, x in ((-11, 50.0), (-3, 20.0), (-1, 600.0)):
        with mp.workdps(40):
            ref = complex(mp.gammainc(s, x))
        assert abs(upper_gamma(s, x) - ref) <= 1e-13 * abs(ref), (s, x)


def test_upper_gamma_negative_integer_order_at_negative_x():
    # for x < 0 the downward recurrence from Gamma(0, x) left 2.2e-4 at
    # s = -11, x = -60 and 1.4e7 at x = -600; the power series has no
    # cancelling terms there
    mp = pytest.importorskip("mpmath")
    for s in range(-1, -12, -1):
        for x in (-2.0, -7.5, -30.0, -60.0, -123.4, -300.0, -600.0):
            with mp.workdps(60):
                ref = complex(mp.gammainc(s, x))
            assert abs(upper_gamma(s, x) - ref) <= 1e-12 * abs(ref), (s, x)


def test_upper_gamma_negative_integer_order_negative_x_sweep():
    pytest.importorskip("hypothesis")
    mp = pytest.importorskip("mpmath")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(min_value=-11, max_value=0), st.floats(min_value=-600.0, max_value=-2.0))
    def check(s, x):
        with mp.workdps(60):
            ref = complex(mp.gammainc(s, x))
        assert abs(upper_gamma(s, x) - ref) <= 1e-12 * abs(ref)

    check()


def test_upper_gamma_noninteger_order_at_negative_x_matches_mpmath():
    # Tricomi's alternating gamma* series left 5e-8 at s = -0.999, x = -10;
    # the series of gamma(s, x) has terms of one sign there
    mp = pytest.importorskip("mpmath")
    orders = (-2.5, -1.3, -0.999, -0.5, 0.25, 0.5, 2.5, 0.6 + 0.8j, -1.3 + 0.2j, -3.5 + 1j)
    for s in orders:
        for x in (-60.0, -40.0, -15.0, -11.0, -10.0, -9.9, -5.0, -1.9, -1.0, -0.3, -1e-3):
            with mp.workdps(40):
                ref = complex(mp.gammainc(mp.mpc(s), x))
            assert abs(upper_gamma(s, x) - ref) <= 1e-12 * abs(ref), (s, x)


def test_upper_gamma_orders_near_and_past_the_factorial_underflow():
    # 1/n! underflows past n = 170: upper_gamma(-169, -0.5) and
    # upper_gamma(-170, x < 0) used to loop forever in the series
    mp = pytest.importorskip("mpmath")
    points = ((-169, -0.5), (-170, 0.5), (-170, -0.5), (-170, -3.0), (-171, 0.5),
              (-171, 1.9), (-171, -0.5), (-200, -3.0))
    for s, x in points:
        with mp.workdps(400):
            ref = complex(mp.gammainc(s, x))
        assert abs(upper_gamma(s, x) - ref) <= 1e-13 * abs(ref), (s, x)
    with pytest.raises(AccuracyError):
        upper_gamma(-171, -300.0)  # the downward recurrence is unstable there
    with pytest.raises(AccuracyError):
        upper_gamma(-1, math.nan)  # a series that cannot settle stops


def test_upper_gamma_overflow_raises_range_overflow():
    # x^s past the double range in the order shift, and in the recurrence
    # below order -170: both used to escape as a bare OverflowError
    with pytest.raises(RangeOverflowError):
        upper_gamma(-60.5, 1e-10)
    with pytest.raises(RangeOverflowError):
        upper_gamma(-210, 1e-3)


def test_upper_gamma_scaled_stays_finite_past_underflow():
    # Gamma(11, 1500) underflows to 0; its scaled value is about 1500^10
    assert upper_gamma(11, 1500.0) == 0.0
    v = upper_gamma_scaled(11, 1500.0)
    assert math.isfinite(v.real) and v.real > 1500.0 ** 10
    with pytest.raises(DomainError):
        upper_gamma_scaled(1.5, 0.0)


# ---------------------------------------------------------------------------
# array kernels: against mpmath, and against their own scalar calls


def test_gamma_half_exp_integer_orders_match_mpmath():
    mp = pytest.importorskip("mpmath")
    xs = np.geomspace(1e-3, 1400.0, 60)
    for m in range(1, 13):
        got = _gamma_half_exp(m, xs)
        with mp.workdps(40):
            ref = np.array([complex(mp.gammainc(m, x) * mp.exp(x / 2)) for x in xs])
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), m


def test_gamma_half_exp_integer_order_sweep():
    pytest.importorskip("hypothesis")
    mp = pytest.importorskip("mpmath")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=1e-3, max_value=1400.0))
    def check(m, x):
        with mp.workdps(40):
            ref = complex(mp.gammainc(m, x) * mp.exp(x / 2))
        assert abs(_gamma_half_exp(m, np.array([x]))[0] - ref) <= 1e-13 * abs(ref)

    check()


def test_gamma_half_exp_is_zero_where_the_half_exponential_underflows():
    # e^{-x/2} is 0 from x ~ 1490; the scaled gamma grows like x^{m-1} and
    # overflows at x = 1e40 for m = 11, and the product must still be 0
    xs = np.array([1500.0, 2000.0, 1e5, 1e40, 1e300])
    for s in (1, 2, 11, 12):
        out = _gamma_half_exp(s, xs)
        assert np.all(out == 0.0), s
    assert np.all(_gamma_half_exp(2.5, xs[:2]) == 0.0)
    with pytest.raises(DomainError):
        _gamma_half_exp(11, np.array([1.0, 0.0]))


def test_gamma_half_exp_integer_orders_match_the_scalar_path():
    xs = np.array([1e-3, 0.3, 1.0, 1.9, 7.5, 50.0, 709.0, 1200.0])
    for m in (1, 2, 5, 11):
        got = _gamma_half_exp(m, xs)
        one = np.array([upper_gamma_scaled(m, x) * math.exp(-0.5 * x) for x in xs])
        assert np.all(np.abs(got - one) <= 4 * np.finfo(float).eps * np.abs(one)), m


def test_gamma_half_exp_noninteger_orders_match_mpmath():
    mp = pytest.importorskip("mpmath")
    xs = np.geomspace(1e-3, 1400.0, 60)
    for s in (-2.5, -0.5, 0.5, 1.5, 11.5, 0.3 + 0.7j):
        got = _gamma_half_exp(s, xs)
        with mp.workdps(40):
            ref = np.array([complex(mp.gammainc(s, x) * mp.exp(x / 2)) for x in xs])
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref)), s


def test_gamma_half_exp_noninteger_orders_match_the_scalar_path():
    # orders off the m >= 1 recurrence go point by point, and a 2-D array
    # keeps its shape
    xs = np.array([[1e-3, 0.7, 1.0, 1.5], [2.4, 13.5, 50.0, 709.0]])
    for s in (-2.5, 0.5, 1.5, 11.5, 0.0, -3.0):
        got = _gamma_half_exp(s, xs)
        assert got.shape == xs.shape
        one = np.array([[upper_gamma_scaled(s, x) * math.exp(-0.5 * x) for x in row] for row in xs])
        assert np.all(np.abs(got - one) <= 1e-14 * np.abs(one)), s


def test_whittaker_kernel_sum_matches_mpmath():
    # the k - 1 Whittaker kernels of the summation formula as one series
    mp = pytest.importorskip("mpmath")
    zs = np.concatenate([np.geomspace(1e-3, 1300.0, 25), [2 * math.pi, 720.0, 800.0]])
    for k in (2, 4, 12):
        got = _whittaker_kernel(k, zs)
        with mp.workdps(40):
            mu = mp.mpf(k - 1) / 2
            ref = np.array([
                float(sum(2 ** (l + 1) * mp.whitm(1 - mp.mpf(k) / 2 + l, mu, z) for l in range(k - 1)))
                for z in zs
            ])
        assert np.all(np.abs(got - ref) <= 1e-13 * ref), k


def test_whittaker_kernel_sum_out_of_range():
    # past z ~ 1420 the kernel overflows: a named error, not inf or a
    # series that never settles
    for k in (2, 4, 12):
        for z in (1500.0, 3000.0):
            with pytest.raises(RangeOverflowError):
                _whittaker_kernel(k, np.array([1.0, z]))
    with pytest.raises(DomainError):
        _whittaker_kernel(4, np.array([1.0, 0.0]))


def _mpmath_bessel(mp, n, xs):
    with mp.workdps(30):
        return np.array([float(mp.besselj(n, x)) for x in xs])


def test_bessel_grid_matches_mpmath_across_the_crossover():
    mp = pytest.importorskip("mpmath")
    # the regime switches: x = 1, and max(20, n), which is 60 at n = 60
    near = [np.nextafter(s, 0.0) for s in (1.0, 20.0, 60.0)] + [1.0, 20.0, 60.0]
    near += [s + d for s in (1.0, 20.0, 60.0) for d in (-1e-3, 1e-3)]
    xs = np.concatenate([np.linspace(0.0, 150.0, 301), near, [11.9, 11.999, 12.0, 12.001, 12.1]])
    for n in (0, 1, 2, 3, 5, 11, 20, 60):
        got = bessel_J_grid(n, xs)
        assert np.max(np.abs(got - _mpmath_bessel(mp, n, xs))) <= 2e-15, n


def test_bessel_grid_far_above_the_order():
    # J_0 and J_1 on [100, 150] were 6e-13 off when a Miller sweep from depth
    # x + 1.3 sqrt(x) + 30 served them; J_120 is still a sweep below x = 120
    mp = pytest.importorskip("mpmath")
    xs = np.linspace(100.0, 150.0, 201)
    for n in (0, 1, 120):
        got = bessel_J_grid(n, xs)
        assert np.max(np.abs(got - _mpmath_bessel(mp, n, xs))) <= 2e-15, n


def test_bessel_grid_rescales_a_sweep_that_would_overflow():
    # J_300 below x = 300 is a Miller sweep whose start value 1e-300 would
    # grow past 1e308 near x = 1 without its rescale
    mp = pytest.importorskip("mpmath")
    xs = np.array([1.5, 3.0, 10.0, 150.0, 280.0])
    got = bessel_J_grid(300, xs)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - _mpmath_bessel(mp, 300, xs))) <= 2e-15


def test_bessel_grid_matches_scalar_calls():
    xs = np.array([[0.0, 0.4, 11.9, 12.0], [12.1, 37.5, 99.0, 142.0]])
    for n in (0, 1, 3, 11):
        got = bessel_J_grid(n, xs)
        one = np.array([[bessel_J_grid(n, float(x)) for x in row] for row in xs])
        assert np.array_equal(got, one), n
    with pytest.raises(DomainError):
        bessel_J_grid(1, np.array([1.0, -1.0]))


def test_bessel_at_infinity_is_a_domain_error():
    # a non-finite point once gave nan, not a named error
    with pytest.raises(DomainError):
        bessel_J_grid(1, np.array([1.0, np.inf]))
    with pytest.raises(DomainError):
        bessel_J_grid(1, math.inf)
    with pytest.raises(DomainError):
        bessel_J_grid(1, math.nan)


# ---------------------------------------------------------------------------
# the array kernels against the loops they replaced, value for value


def _miller_all_orders(nmax, x):
    """The all-orders Miller sweep that ``_bessel_j_miller`` replaced: one
    depth mask a step, every order kept, the rescale test at every step."""
    xs = np.asarray(x, dtype=float).ravel()
    depth = (xs + 1.3 * xs ** 0.5 + 30 + nmax).astype(np.int64)
    depth += depth % 2
    out = np.zeros((nmax + 1, xs.size))
    jp = np.zeros(xs.size)
    jc = np.zeros(xs.size)
    norm = np.zeros(xs.size)
    for k in range(int(depth.max(initial=0)), 0, -1):
        jc[depth == k] = 1e-300
        jm = 2.0 * k / xs * jc - jp
        jp = jc
        jc = jm
        big = np.abs(jc) > 1e250
        if big.any():
            jc[big] *= 1e-250
            jp[big] *= 1e-250
            out[:, big] *= 1e-250
            norm[big] *= 1e-250
        kk = k - 1
        if kk > 0 and kk % 2 == 0:
            norm += 2.0 * jc
        if kk <= nmax:
            out[kk] = jc
    norm += jc
    return out / norm


def _blocked_series(zs, mu, factors):
    """The blocked loop that ``_seeded_series`` replaced: 256 points at a
    time, 64 terms a block, ``factors(ks, z)`` a (points, terms) table."""
    flat = zs.ravel()
    quarter = np.exp(-0.25 * flat)
    seed = quarter * flat ** (mu + 0.5) * quarter
    out = np.zeros(flat.size)
    cols = np.arange(64)
    for live in np.array_split(np.flatnonzero(seed), 1 + np.count_nonzero(seed) // 256):
        live_z, term = flat[live], seed[live]
        acc = term.copy()
        quiet = np.zeros(live.size, dtype=np.int64)
        for k0 in range(0, 100000, 64):
            ks = k0 + cols
            terms = np.cumprod(np.column_stack((term, factors(ks, live_z))), axis=1)[:, 1:]
            sums = np.cumsum(np.column_stack((acc, terms)), axis=1)[:, 1:]
            loud = np.where(np.abs(terms) < 1e-16 * np.abs(sums), -1 - quiet[:, None], cols)
            run = cols - np.maximum.accumulate(loud, axis=1)
            settled = run >= 10
            done = settled.any(axis=1)
            out[live[done]] = sums[done, settled.argmax(axis=1)[done]]
            keep = ~done
            live, live_z = live[keep], live_z[keep]
            term, acc, quiet = terms[keep, -1], sums[keep, -1], run[keep, -1]
            if not live.size:
                break
    return out


def test_single_order_miller_sweep_equals_the_all_orders_sweep(monkeypatch):
    # on (12, 700] and on the Bessel points of mf_term_check at the
    # benchmark's 15 (n, k) pairs: one u-grid per n, whatever k
    grids = [np.linspace(12.0, 700.0, 2001)[1:]]

    def record(n, xs):
        grids.append(xs[xs > 12.0])
        return bessel_J_grid(n, xs)

    monkeypatch.setattr(verify, "bessel_J_grid", record)
    for n in range(1, 6):
        verify.mf_term_check(n, 2, 1, TestFunction.bump(1, 2))
    assert len(grids) == 6
    for n in (0, 1, 3, 11, 23):
        for xs in grids:
            assert np.array_equal(specials._bessel_j_miller(n, xs), _miller_all_orders(n, xs)[n]), n


_GEOMETRIC = np.geomspace(1e-3, 1300.0, 4001)


def test_whittaker_kernel_equals_the_blocked_loop():
    for k in (2, 4, 12):
        ratios = lambda ks, z: np.multiply.outer(z, specials._kernel_ratios(k, int(ks[0]) // 64))
        ref = (2.0 ** k - 2.0) * _blocked_series(_GEOMETRIC, 0.5 * (k - 1), ratios)
        assert np.array_equal(_whittaker_kernel(k, _GEOMETRIC), ref), k


def test_array_kernels_equal_their_scalar_calls_exactly():
    zs = np.concatenate([np.geomspace(1e-3, 1300.0, 41), [6.3, 62.8, 62.8]])
    for k in (2, 4, 12):
        got = _whittaker_kernel(k, zs)
        one = np.array([_whittaker_kernel(k, np.array([z]))[0] for z in zs])
        assert np.array_equal(got, one), k
    assert _whittaker_kernel(4, np.array([])).shape == (0,)


def test_series_continuation_gives_the_same_values(monkeypatch):
    # every point runs out of rows in its first table and continues
    zs = np.geomspace(1e-3, 1300.0, 301)
    want = {k: _whittaker_kernel(k, zs) for k in (2, 4, 12)}
    monkeypatch.setattr(specials, "_series_terms", lambda z: np.full(z.shape, 8))
    for k in (2, 4, 12):
        assert np.array_equal(_whittaker_kernel(k, zs), want[k]), k


def test_kernel_ratios_are_correctly_rounded():
    # C_j = sum_l 2^{l+1} (k-1-l)_j / ((k)_j j!), the k - 1 Kummer series
    # of the kernel's M-functions, in exact rationals
    def poch(a, j):
        out = 1
        for i in range(j):
            out *= a + i
        return out

    for k in (2, 4, 12):
        for block in (0, 1, 2, 5, 15, 18):
            j0 = block * 64
            c = [sum(Fraction(2 ** (l + 1) * poch(k - 1 - l, j), poch(k, j) * math.factorial(j))
                     for l in range(k - 1)) for j in range(j0, j0 + 65)]
            want = [float(c[i + 1] / c[i]) for i in range(64)]
            assert specials._kernel_ratios(k, block).tolist() == want, (k, block)


# ---------------------------------------------------------------------------
# matrix products below BLAS's threading sizes


def _operand(rng, shape, kind):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if kind == "D" else x


# (a shape, b shape): small, one-row, empty, and above every cap, so tiled
_PRODUCT_SHAPES = [
    ((5, 7), (7, 3)), ((7,), (7, 3)), ((5, 7), (7,)), ((7,), (7,)),
    ((1, 7), (7, 4)), ((5, 7), (7, 1)), ((0, 7), (7, 3)), ((5, 0), (0, 3)),
    ((5, 7), (7, 0)), ((0,), (0,)), ((27, 802), (802, 78)), ((3, 256), (256, 128)),
    ((256,), (256, 1024)), ((128, 256), (256,)), ((700, 700), (700,)), ((1, 800), (800, 700)),
]


@pytest.mark.parametrize("kinds", ["dd", "dD", "Dd", "DD"])
@pytest.mark.parametrize("shapes", _PRODUCT_SHAPES, ids=str)
def test_matmul_matches_the_plain_product(shapes, kinds):
    rng = np.random.default_rng(sum(map(sum, shapes)))
    a, b = (_operand(rng, s, k) for s, k in zip(shapes, kinds))
    got, want = specials._matmul(a, b), a @ b
    assert np.shape(got) == np.shape(want) and np.result_type(got) == np.result_type(want)
    assert np.all(np.abs(got - want) <= 1e-15 * (np.abs(a) @ np.abs(b)))


def test_matmul_passes_long_double_through():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 900)).astype(np.longdouble)
    b = rng.standard_normal((900, 50)).astype(np.longdouble)
    for x, y in ((a, b), (a.astype(np.clongdouble) * (1 + 1j), b), (a[0], b[:, 0])):
        got = specials._matmul(x, y)
        assert got.dtype == (x @ y).dtype and np.array_equal(got, x @ y)


def _blas_calls(monkeypatch):
    """Record (a dtype code, b dtype code, m, k, n) of every np.matmul call."""
    calls, real = [], np.matmul

    def spy(a, b, out=None):
        calls.append((a.dtype.char, b.dtype.char, a.shape[0] if a.ndim == 2 else 1,
                      b.shape[0], b.shape[1] if b.ndim == 2 else 1))
        return real(a, b, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    return calls


def _within_the_caps(calls):
    for ca, cb, m, k, n in calls:
        cap = specials._BLAS_CAPS.get((ca, cb, m == 1 or n == 1))
        assert cap is None or m == n == 1 or m * k * n <= cap, (ca, cb, m, k, n)


def test_matmul_calls_stay_within_the_caps(monkeypatch):
    rng = np.random.default_rng(5)
    calls = _blas_calls(monkeypatch)
    for shapes in _PRODUCT_SHAPES:
        for kinds in ("dd", "dD", "Dd", "DD"):
            specials._matmul(*(_operand(rng, s, k) for s, k in zip(shapes, kinds)))
    _within_the_caps(calls)


def test_library_products_stay_within_the_caps(monkeypatch):
    from maass_lseries.form import FormData, _evaluate, eval_iy
    from maass_lseries.lseries import lseries_delta, lseries_series
    from maass_lseries.qseries import fixture
    from maass_lseries.testfn import laplace_lattice, shift_s, slash_W, standard_battery

    calls = _blas_calls(monkeypatch)
    # fe_delta_twists' largest transform table (Delta twisted mod 5): 27
    # lattice rows, 802 nodes, 26 giant rows times 3 columns
    phi = slash_W(standard_battery()[9], -10.0, 1)
    laplace_lattice((phi, shift_s(phi, 2.0)), np.arange(1, 686), 2 * math.pi / 5)
    assert max(m * k * n for _, _, m, k, n in calls) <= specials._BLAS_CAPS["d", "d", False]
    assert sum(m * n for _, _, m, k, n in calls if k == 802) == 27 * 78
    # a 128 x 256 block of eval_iy (a real table against complex coefficients)
    # and the same block off the axis (complex against complex)
    f = fixture("delta", 768)
    ys = np.linspace(0.44, 0.45, 128)
    calls.clear()
    eval_iy(f, ys)
    assert [(m, k) for _, _, m, k, _ in calls] == [(128, 256)]
    calls.clear()
    _evaluate(f, 0.1 + 1j * ys, False, 1e-12)
    assert sum(m for _, _, m, k, _ in calls if k == 256) == 128
    _within_the_caps(calls)
    # the weight -10 form of the harmonic benchmark (12 b-terms) on bump 9,
    # plain and delta_k: every product is one BLAS call, none is split into
    # tiles (a tiled product enters _tiled again from within)
    depths, depth = [], [0]
    tiled = specials._tiled

    def spy_tiled(a, b, out=None):
        depths.append(depth[0])
        depth[0] += 1
        try:
            return tiled(a, b, out)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(specials, "_tiled", spy_tiled)
    tau = fixture("delta", 13).a
    g = FormData(
        weight2=-20, level=1, psi=trivial_character(1), n0=1,
        a={-1: 1.0, 0: 2.0, 1: 5.0, 2: -1.0},
        b={-n: -tau[n].real * (4.0 * math.pi * n) ** -11 for n in range(1, 13)},
        growth_C=8.0, exhaustive=True,
    )
    calls.clear()
    lseries_series(g, standard_battery()[9])
    lseries_delta(g, standard_battery()[9])
    assert calls and max(depths, default=0) == 0
    _within_the_caps(calls)


def test_no_product_outside_matmul():
    import ast
    import pathlib

    banned = {"dot", "matmul", "inner", "vdot", "tensordot"}
    src = pathlib.Path(specials.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name in ("_matmul", "_tiled")
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            product = (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)) or (
                isinstance(node, ast.Attribute) and node.attr in banned
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
            if product:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
