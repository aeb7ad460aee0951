"""L-series: series/integral routes, delta variant, twists, s-family,
the regularized series of weakly holomorphic forms, classical values."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from maass_lseries import lseries as lseries_module
from maass_lseries.errors import AccuracyError, DomainError, MembershipError
from maass_lseries.form import ArrayCoeffs, FormData, RuleCoeffs, eval_iy, twist
from maass_lseries.lseries import (
    _nonhol_part,
    regularized_lseries,
    classical_value,
    lseries_delta,
    lseries_delta_integral,
    lseries_integral,
    lseries_s,
    lseries_series,
    lseries_twisted,
    series_membership,
)
from maass_lseries.qseries import fixture
from maass_lseries.specials import (
    _gamma_half_exp,
    characters_mod,
    gauss_sum,
    trivial_character,
    upper_gamma,
)
from maass_lseries.testfn import (
    TestFunction,
    laplace,
    laplace_many,
    quadrature,
    shift_s,
    slash_W,
    standard_battery,
)

BAT = standard_battery()


def _single_a1():
    return FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a={1: 1.0}, b={}, growth_C=4.0, exhaustive=True,
    )


def test_single_term_box():
    box = TestFunction.spline([0.0, 1.0], [[1.0]])
    v = lseries_series(_single_a1(), box).value
    assert abs(v - (1 - math.exp(-2 * math.pi)) / (2 * math.pi)) < 1e-14


def test_swap_order_oracle():
    # a(n) = 1 for n <= N: L_f(phi) = int phi(y) sum e^{-2 pi n y} dy
    N = 40
    f = FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a={n: 1.0 for n in range(1, N + 1)}, b={}, growth_C=1.0, exhaustive=True,
    )
    phi = BAT[2]
    lhs = lseries_series(f, phi).value

    def inner(ys):
        q = np.exp(-2 * math.pi * ys)
        return phi.eval_many(ys) * q * (1 - q ** N) / (1 - q)

    rhs, _ = quadrature(inner, *phi.support(), rel_tol=1e-13, vectorized=True)
    assert abs(lhs - rhs) < 1e-11 * abs(rhs)


@pytest.mark.parametrize("name,prec", [
    ("delta", 256), ("e4", 256), ("j744", 768), ("inv_delta", 768), ("theta", 768),
])
def test_series_integral_equivalence(name, prec):
    f = fixture(name, prec)
    for phi in BAT:
        sv = lseries_series(f, phi)
        iv = lseries_integral(f, phi)
        rel = abs(sv.value - iv.value) / max(abs(sv.value), abs(iv.value), 1e-30)
        assert rel < 1e-9, (name, phi.label, rel)
        assert sv.trunc_err >= 0 and sv.quad_err >= 0


def test_nonholomorphic_two_internal_forms():
    # single b(-1), k = -10: t-integral route vs y-integral route
    k = -10
    f = FormData(
        weight2=2 * k, level=1, psi=trivial_character(1), n0=0,
        a={}, b={-1: 1.0}, growth_C=4.0, exhaustive=True,
    )
    for phi in (BAT[2], BAT[5]):
        part = _nonhol_part(f, phi)
        assert abs(part.t - part.y) < 1e-9 * max(abs(part.t), abs(part.y))
        sv = lseries_series(f, phi)
        iv = lseries_integral(f, phi)
        assert abs(sv.value - iv.value) < 1e-9 * abs(iv.value)


def _bump_mp(mp, phi):
    c1, c2 = phi.support()
    return c1, c2, lambda y: mp.exp(4 / mp.mpf(c2 - c1) ** 2 - 1 / ((y - c1) * (c2 - y)))


def _harmonic_form(n_terms):
    """Weight -10, level 1, shadow Delta: b(-n) = -tau(n) (4 pi n)^{-11}."""
    k = 12
    tau = fixture("delta", n_terms + 1).a
    return FormData(
        weight2=2 * (2 - k), level=1, psi=trivial_character(1), n0=1,
        a={-1: 1.0, 0: 2.0, 1: 5.0, 2: -1.0},
        b={-n: -tau[n].real * (4.0 * math.pi * n) ** (1 - k) for n in range(1, n_terms + 1)},
        growth_C=8.0, exhaustive=True,
    )


def test_nonholomorphic_part_within_its_budget():
    # single b(-1), k = -10: both routes, the series and its delta_k variant
    # against mpmath, each inside the error it reports
    mp = pytest.importorskip("mpmath")
    k = -10
    f = FormData(
        weight2=2 * k, level=1, psi=trivial_character(1), n0=0,
        a={}, b={-1: 1.0}, growth_C=4.0, exhaustive=True,
    )
    for phi in (BAT[0], BAT[4], BAT[9]):
        c1, c2, bump = _bump_mp(mp, phi)
        with mp.workdps(30):
            def term(y):
                return mp.gammainc(1 - k, 4 * mp.pi * y) * mp.exp(2 * mp.pi * y) * bump(y)

            ref = complex(mp.quad(term, [c1, (c1 + c2) / 2, c2]))
            ref_d = complex(mp.quad(
                lambda y: term(y) * (mp.mpf(k) / 2 + 2 * mp.pi * y), [c1, (c1 + c2) / 2, c2]
            ))
        part = _nonhol_part(f, phi)
        for v, q in ((part.t, part.t_err), (part.y, part.y_err)):
            assert abs(v - ref) <= q, (phi.label, v, ref, q)
        sv, dv = lseries_series(f, phi), lseries_delta(f, phi)
        assert abs(sv.value - ref) <= sv.quad_err + sv.trunc_err
        assert abs(dv.value - ref_d) <= dv.quad_err + dv.trunc_err
        assert dv.quad_err <= 1e-13 * abs(ref_d)


@pytest.mark.parametrize("n_terms", [12, 100])
def test_nonholomorphic_routes_agree(n_terms):
    # shadow Delta with 12 and with 100 b-terms on the whole battery: every
    # bump evaluates, and the routes agree far inside their cross-check
    g = _harmonic_form(n_terms)
    for phi in BAT:
        part = _nonhol_part(g, phi)
        assert abs(part.t - part.y) <= 1e-14 * part.mass, phi.label
        assert part.mass >= abs(part.y)
        assert np.isfinite(lseries_series(g, phi).value)


def test_nonholomorphic_grid_against_an_adaptive_y_integral():
    # both routes read one x-grid, so their cross-check cannot see its
    # error; an independent adaptive quadrature of the y-integral can
    g = _harmonic_form(100)
    bns, bvals = g._arrays("b")
    for phi in (BAT[0], BAT[5], BAT[9]):
        def integrand(ys):
            xs = np.multiply.outer(ys, -4.0 * math.pi * bns / g.period)
            return (_gamma_half_exp(1.0 - g.k, xs) @ bvals) * phi.eval_many(ys)

        ref, ref_err = quadrature(
            integrand, *phi.support(), rel_tol=1e-14, knots=phi.knots(), vectorized=True
        )
        part = _nonhol_part(g, phi)
        for v, q in ((part.t, part.t_err), (part.y, part.y_err)):
            assert abs(v - ref) <= q + ref_err, (phi.label, v, ref, q, ref_err)


def test_route_cross_check_fires_on_a_perturbed_route(monkeypatch):
    # on bump 9 the b-part is about 1e-10, under the old absolute 1e-6
    g = _harmonic_form(12)
    honest = lseries_module._nonhol_part

    def perturbed(*args, **kwargs):
        part = honest(*args, **kwargs)
        return replace(part, t=part.t + 1e-9 * part.mass)

    monkeypatch.setattr(lseries_module, "_nonhol_part", perturbed)
    for phi in (BAT[0], BAT[9]):
        with pytest.raises(AccuracyError):
            lseries_series(g, phi)


@pytest.mark.parametrize("name", ["inv_delta", "j744"])
def test_negative_index_terms_within_their_budgets(name):
    # the a(-1) term of the fixture alone, plain and delta_k, against mpmath
    mp = pytest.importorskip("mpmath")
    full = fixture(name, 32)
    a1 = complex(full.a[-1])
    assert a1 != 0
    f = FormData(
        weight2=full.weight2, level=1, psi=trivial_character(1), n0=1,
        a={-1: a1}, b={}, growth_C=full.growth_C, exhaustive=True,
    )
    for phi in (BAT[0], BAT[5], BAT[9]):
        c1, c2, bump = _bump_mp(mp, phi)
        with mp.workdps(30):
            l1 = mp.quad(lambda y: bump(y) * mp.exp(2 * mp.pi * y), [c1, c2])
            l2 = mp.quad(lambda y: bump(y) * y * mp.exp(2 * mp.pi * y), [c1, c2])
            ref = complex(a1 * l1)
            ref_d = complex(a1 * (mp.mpf(f.k) / 2 * l1 + 2 * mp.pi * l2))
        sv, dv = lseries_series(f, phi), lseries_delta(f, phi)
        assert abs(sv.value - ref) <= sv.quad_err + sv.trunc_err, phi.label
        assert 0 < dv.quad_err <= 1e-13 * abs(ref_d)
        assert abs(dv.value - ref_d) <= dv.quad_err + dv.trunc_err, phi.label


def test_zero_form():
    z = FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a={}, b={}, growth_C=4.0, exhaustive=True,
    )
    assert lseries_series(z, BAT[0]).value == 0
    assert lseries_integral(z, BAT[0]).value == 0


def test_linearity_in_f_and_phi():
    rng = np.random.default_rng(9)
    f = fixture("delta", 128)
    g = fixture("e4", 128)
    phi, psi = BAT[2], BAT[3]
    al, be = rng.normal(size=2)
    combo = FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a={n: al * f.a.get(n, 0) + be * g.a.get(n, 0) for n in set(f.a) | set(g.a)},
        b={}, growth_C=6.0,
    )
    lhs = lseries_series(combo, phi).value
    rhs = al * lseries_series(f, phi).value + be * lseries_series(g, phi).value
    assert abs(lhs - rhs) < 1e-11 * max(1e-12, abs(lhs))
    # linearity in phi through explicit quadratures of the integral route
    s1 = lseries_integral(f, phi).value + lseries_integral(f, psi).value
    from maass_lseries.form import eval_iy

    def both(ys):
        return eval_iy(f, ys, 1e-14) * (phi.eval_many(ys) + psi.eval_many(ys))

    lo = min(phi.support()[0], psi.support()[0])
    hi = max(phi.support()[1], psi.support()[1])
    s2, _ = quadrature(both, lo, hi, rel_tol=1e-13,
                       knots=phi.knots() + psi.knots(), vectorized=True)
    assert abs(s1 - s2) < 1e-11 * abs(s1)


def test_delta_variant_closed_forms():
    # constant: (k/2) c int phi
    fc = FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a={0: 2.0}, b={}, growth_C=4.0, exhaustive=True,
    )
    phi = BAT[2]
    mass, _ = quadrature(lambda xs: phi.eval_many(xs), *phi.support(), vectorized=True)
    assert abs(lseries_delta(fc, phi).value - 12.0 * mass) < 1e-12 * abs(12 * mass)
    # single a(1): (k/2)(L phi)(2 pi) - 2 pi (L phi_2)(2 pi)
    f1 = _single_a1()
    expect = 6.0 * laplace(phi, 2 * math.pi) - 2 * math.pi * laplace(
        shift_s(phi, 2.0), 2 * math.pi
    )
    assert abs(lseries_delta(f1, phi).value - expect) < 1e-13 * abs(expect)


def test_integral_route_refines_in_few_passes(monkeypatch):
    # one integrand call per refinement pass: about 27 calls when the
    # quadrature refined one panel at a time
    calls = []
    monkeypatch.setattr(
        lseries_module, "eval_iy", lambda *a, **k: calls.append(1) or eval_iy(*a, **k)
    )
    f = fixture("j744", 768)
    iv = lseries_integral(f, BAT[0])
    sv = lseries_series(f, BAT[0])
    assert len(calls) <= 10
    assert abs(iv.value - sv.value) <= 1e-12 * abs(sv.value)


def test_lseries_s_keeps_its_value_under_the_pass_quadrature():
    # a complex integrand; the reference is the one-panel-at-a-time value
    lv = lseries_s(fixture("delta", 256), TestFunction.bump(0.5, 1.5), 0.5 + 2.0j)
    ref = 0.0009098922071955875 - 0.00023770981664072215j
    assert abs(lv.value - ref) <= 1e-15 * abs(ref)


def test_delta_variant_series_vs_integral():
    f = fixture("delta", 256)
    for phi in (BAT[0], BAT[4], BAT[9]):
        sv = lseries_delta(f, phi).value
        iv = lseries_delta_integral(f, phi).value
        assert abs(sv - iv) < 1e-8 * max(abs(sv), abs(iv))


def test_delta_variant_nonholomorphic_part():
    # the t-integral route of the delta-op series against the direct
    # integral of (delta_k f)(iy) for data with a genuine b-part
    k = -10
    f = FormData(
        weight2=2 * k, level=1, psi=trivial_character(1), n0=0,
        a={1: 0.5}, b={-1: 1.0, -2: 0.25}, growth_C=4.0, exhaustive=True,
    )
    for phi in (BAT[1], BAT[4]):
        sv = lseries_delta(f, phi).value
        iv = lseries_delta_integral(f, phi).value
        assert abs(sv - iv) < 1e-10 * abs(iv)


def test_twisted_delegation_two_code_paths():
    # delegation through twist() against the direct tau-weighted series
    f = fixture("delta", 256)
    chi = characters_mod(3)[1]
    chib = chi.conjugate()
    phi = BAT[3]
    v1 = lseries_twisted(f, chi, phi).value
    ft = twist(f, chi)
    direct = sum(
        complex(f.a[n]) * gauss_sum(chib, n) * laplace(phi, 2 * math.pi * n / 3)
        for n in sorted(f.a) if n <= 40
    )
    assert abs(v1 - lseries_series(ft, phi).value) == 0.0  # same path by construction
    assert abs(v1 - direct) < 1e-12 * max(abs(v1), 1e-12)


def test_twisted_triangle_bound():
    # |L_{f_chi}(phi)| <= D sum |a(n)| (L|phi|)(2 pi n / D)
    f = fixture("delta", 128)
    D = 5
    chi = characters_mod(D)[1]
    phi = BAT[2]
    v = lseries_twisted(f, chi, phi).value
    bound = D * sum(
        abs(complex(f.a[n])) * abs(laplace(phi, 2 * math.pi * n / D))
        for n in sorted(f.a) if n <= 60
    )
    assert abs(v) <= bound


def test_membership_error_for_noncompact():
    f = fixture("delta", 64)  # not exhaustive: envelope certificate needed
    tp = TestFunction.trunc_power(2.0, 1.0)
    with pytest.raises(MembershipError):
        series_membership(f, tp)
    with pytest.raises(MembershipError):
        series_membership(f, tp, for_delta=True)
    with pytest.raises(MembershipError):
        lseries_series(f, tp)
    with pytest.raises(MembershipError):
        lseries_delta(f, tp)


def test_s_family_consistency_and_cross_route():
    f = fixture("delta", 512)
    phi = BAT[3]
    v1 = lseries_s(f, phi, 1.0).value
    v0 = lseries_series(f, phi).value
    assert abs(v1 - v0) < 1e-12 * abs(v0)
    for s in (2.0 + 1.0j, 0.5, 3.7 - 0.9j):
        va = lseries_s(f, phi, s).value
        vb = lseries_series(f, shift_s(phi, s)).value
        assert abs(va - vb) < 1e-12 * abs(vb)


def test_s_family_functional_equation_delta():
    f = fixture("delta", 512)
    phi = BAT[3]
    s = 0.3 + 2.0j
    lhs = lseries_s(f, phi, s).value
    rhs = (1j) ** 12 * 1.0 ** (-s - 6 + 1) * lseries_s(
        f, slash_W(phi, 1.0 - 12, 1), 1 - s
    ).value
    assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), abs(rhs))


def test_s_family_zero_form():
    z = FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a={}, b={}, growth_C=4.0, exhaustive=True,
    )
    assert lseries_s(z, BAT[2], 2.5).value == 0


# ---------------------------------------------------------------------------
# regularized series of weakly holomorphic forms


def test_regularized_t0_independence_delta():
    f = fixture("delta", 64)
    for s in (2.0, 6.0, 12.0):
        vals = [regularized_lseries(f, s, t0) for t0 in (0.5, 1.0, 2.0)]
        spread = max(abs(a - b) for a in vals for b in vals)
        assert spread < 1e-9 * max(abs(v) for v in vals)


def test_regularized_t0_independence_j744():
    f = fixture("j744", 64)
    vals = [regularized_lseries(f, 2.5, t0) for t0 in (0.5, 1.0, 2.0)]
    spread = max(abs(a - b) for a in vals for b in vals)
    assert spread < 1e-8 * max(abs(v) for v in vals)
    assert all(np.isfinite([v.real, v.imag]).all() for v in vals)


def test_regularized_j744_matches_mpmath_sum():
    # the same series term by term in mpmath; the n = -1 term takes the
    # continuation of Gamma(s, x) to x < 0
    mp = pytest.importorskip("mpmath")
    f = fixture("j744", 64)
    s, t0, k = 2.5, 1.0, round(f.k)
    got = regularized_lseries(f, s, t0)
    with mp.workdps(40):
        ref = mp.mpf(0)
        for n, v in sorted(f.a.items()):
            if n == 0 or v == 0:
                continue
            u = 2 * mp.pi * n
            ref += complex(v) * (
                mp.gammainc(s, u * t0) * u ** -s
                + mp.mpc(0, 1) ** k * mp.gammainc(k - s, u / t0) * u ** (s - k)
            )
        ref = complex(ref)
    assert abs(got - ref) <= 1e-13 * abs(ref)


def test_regularized_first_sum_vanishes_large_t0():
    # each Gamma(6, 2 pi n t0) -> 0, so the first sum alone dies off
    f = fixture("delta", 64)
    t0 = 50.0
    first = sum(
        complex(v) * upper_gamma(6.0, 2 * math.pi * n * t0) * (2 * math.pi * n) ** -6.0
        for n, v in sorted(f.a.items())
        if 2 * math.pi * n * t0 < 700
    )
    assert abs(first) < 1e-120


def test_regularized_domain_errors():
    f = fixture("e4", 32)  # nonzero constant term
    with pytest.raises(DomainError):
        regularized_lseries(f, 2.0, 1.0)
    th = fixture("theta", 32)
    with pytest.raises(DomainError):
        regularized_lseries(th, 2.0, 1.0)  # odd weight
    d = fixture("delta", 32)
    with pytest.raises(DomainError):
        regularized_lseries(d, 2.0, -1.0)


# ---------------------------------------------------------------------------
# classical values


def test_classical_zeta_values():
    ones = RuleCoeffs(lambda n: 1.0, 1, 200_000_000, vfn=lambda ns: np.ones(len(ns)))
    f = FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a=ones, b={}, growth_C=1.0,
    )
    lv2 = classical_value(f, 2.0, tol=4e-9)
    assert abs(lv2.value - math.pi ** 2 / 6) < 1e-8
    assert lv2.trunc_err < 1e-8
    lv4 = classical_value(f, 4.0, tol=1e-10)
    assert abs(lv4.value - math.pi ** 4 / 90) < 1e-10


def test_classical_partial_sum_plus_tail_oracle():
    # independent oracle: partial sums + Euler-Maclaurin tail
    ones = RuleCoeffs(lambda n: 1.0, 1, 200_000_000, vfn=lambda ns: np.ones(len(ns)))
    f = FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a=ones, b={}, growth_C=1.0,
    )
    N = 100_000
    for s, target in ((2.0, math.pi ** 2 / 6), (4.0, math.pi ** 4 / 90)):
        partial = float(np.sum(np.arange(1, N + 1, dtype=float) ** -s))
        tail = N ** (1 - s) / (s - 1) - 0.5 * N ** -s + s / 12 * N ** (-s - 1)
        oracle = partial + tail
        assert abs(oracle - target) < 1e-12
        lv = classical_value(f, s, tol=4e-9)
        assert abs(lv.value - oracle) < 1e-8


def test_classical_delta_partial_sum_oracle():
    f = fixture("delta", 768)
    lv = classical_value(f, 12.0)
    oracle = sum(complex(v) / n ** 12.0 for n, v in sorted(f.a.items()))
    assert abs(lv.value - oracle) < 1e-10 * abs(oracle)


def test_classical_divergence_error():
    f = fixture("delta", 128)
    with pytest.raises(DomainError):
        classical_value(f, 3.0)  # below the tau-growth abscissa ~ 6.5
    th = fixture("j744", 32)
    with pytest.raises(DomainError):
        classical_value(th, 12.0)  # n0 != 0


@pytest.mark.parametrize("s", [math.nan, complex(12.0, math.nan), math.inf, complex(12.0, -math.inf)])
def test_classical_rejects_non_finite_s(s):
    # NaN compares false with the abscissa, so it would pass that check
    with pytest.raises(DomainError, match="finite"):
        classical_value(fixture("delta", 64), s)


def test_harmonic_series_route_past_gamma_underflow():
    """Weight -10 form with shadow Delta on bump 9: 4 pi n y reaches 1700,
    where Gamma(11, 4 pi n y) underflows and e^{2 pi n y} overflows; the
    scaled gamma keeps the b-terms finite (mpmath reference)."""
    mp = pytest.importorskip("mpmath")
    k = 12
    tau = {n: fixture("delta", 13).a[n].real for n in range(1, 13)}
    a = {-1: 1.0, 0: 2.0, 1: 5.0, 2: -1.0}
    b = {-n: -t * (4.0 * math.pi * n) ** (1 - k) for n, t in tau.items()}
    g = FormData(
        weight2=2 * (2 - k), level=1, psi=trivial_character(1), n0=1,
        a=a, b=b, growth_C=8.0, exhaustive=True,
    )
    phi = BAT[9]
    c1, c2 = phi.support()

    def integrand(y):
        gy = sum(v * mp.exp(-2 * mp.pi * n * y) for n, v in a.items())
        gy += sum(
            v * mp.gammainc(1 - g.k, -4 * mp.pi * n * y) * mp.exp(-2 * mp.pi * n * y)
            for n, v in b.items()
        )
        bump = mp.exp(4 / mp.mpf(c2 - c1) ** 2 - 1 / ((y - c1) * (c2 - y)))
        return gy * bump

    with mp.workdps(30):
        ref = float(mp.quad(integrand, [c1, c2]))
    assert abs(ref - 3.3306e29) < 1e-4 * ref
    sv = lseries_series(g, phi)
    assert abs(sv.value - ref) <= 1e-10 * ref + sv.quad_err
    assert abs(lseries_integral(g, phi).value - ref) <= 1e-10 * ref


# ---------------------------------------------------------------------------
# the cut of the series at its certified mass


def _cut_instances():
    """(f, chi, phi) for Delta twisted mod D <= 5, theta twisted mod every odd
    D < 16 where the tails certify, and j744, on the battery."""
    delta, theta, j744 = (fixture(name, 768) for name in ("delta", "theta", "j744"))
    for f, moduli in ((delta, range(1, 6)), (theta, range(1, 16, 2)), (j744, (1,))):
        for D in moduli:
            for chi in characters_mod(D):
                for phi in BAT:
                    yield f, chi, phi


def _added_bounds(f, chi, phi):
    """The bounds that the cut charges to the plain and the delta_k value."""
    ft = twist(f, chi)
    ns, avals = ft._arrays("a")
    c1, _, K, K2 = lseries_module._phi_mass(phi)
    alpha = 2 * math.pi * c1 / ft.period
    skipped = lseries_module._mass_cut(ns, np.abs(avals), alpha, None)[1]
    return K * skipped[0], 2 * math.pi / ft.period * (K2 * skipped[1])


def test_cut_series_within_the_added_bound_of_the_full_range_sum():
    # the full-range sums take every stored n, on one laplace_many grid;
    # their rounding budget is that of the transforms plus 1e-16 of the mass
    checked = 0
    for f, chi, phi in _cut_instances():
        try:
            plain, delta = lseries_module._twisted_pair(f, chi, phi)
        except MembershipError:
            continue
        ft = twist(f, chi)
        ns, c = ft._arrays("a")
        step = 2 * math.pi / ft.period
        lv, le = laplace_many((phi, shift_s(phi, 2.0)), ns * step)
        full = np.sum(c * lv[0])
        budget = np.sum(np.abs(c) * le[0]) + 1e-16 * np.sum(np.abs(c * lv[0]))
        full_d = 0.5 * f.k * full - step * np.sum(ns * c * lv[1])
        budget_d = 0.5 * f.k * budget + step * (
            np.sum(np.abs(ns * c) * le[1]) + 1e-16 * np.sum(np.abs(ns * c * lv[1])))
        added, added_d = _added_bounds(f, chi, phi)
        for lv_cut, ref, add, bud in ((plain, full, added, budget), (delta, full_d, added_d, budget_d)):
            assert abs(lv_cut.value - ref) <= add + bud + lv_cut.quad_err, (ft.label, phi.label)
            assert add <= 1e-3 * lv_cut.quad_err, (ft.label, phi.label)
            assert add <= lv_cut.trunc_err
        checked += 1
    assert checked == 600, checked


def test_cut_does_not_depend_on_the_scale_of_the_coefficients():
    # the rule is relative to the series' own mass, so scaling every
    # coefficient by 10^e leaves the summed indices as they are (an absolute
    # cut at e^-650 sums more of them at 10^150 and fewer at 10^-150)
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    f = fixture("delta", 768)
    ns, avals = f._arrays("a")

    def summed(form, phi):
        seen = []
        real = lseries_module.laplace_lattice

        def spy(p, ns_, step):
            seen.append(np.asarray(ns_))
            return real(p, ns_, step)

        with mock.patch.object(lseries_module, "laplace_lattice", spy):
            lseries_module._series_pair(form, phi, True)
        return seen[0]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-150, 150), st.integers(0, 9), st.integers(1, 5))
    def check(e, j, D):
        chi = characters_mod(D)[-1]
        base = twist(f, chi)
        scaled = replace(base, a=ArrayCoeffs(ns, base._arrays("a")[1] * 10.0 ** e))
        assert np.array_equal(summed(scaled, BAT[j]), summed(base, BAT[j]))

    check()


def test_n_terms_counts_the_terms_summed():
    # both values count the terms each series sums, not the stored range
    f = fixture("delta", 768)
    plain, delta = lseries_series(f, BAT[0]), lseries_delta(f, BAT[0])
    ns, avals = f._arrays("a")
    alpha = 2 * math.pi * lseries_module._phi_mass(BAT[0])[0]
    kept = lseries_module._mass_cut(ns, np.abs(avals), alpha, None)[0][1]
    assert plain.n_terms < len(f.a) and delta.n_terms == np.count_nonzero(kept) < len(f.a)
