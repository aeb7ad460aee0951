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
    # single b(-1), k = -10: moment route vs y-integral route
    k = -10
    f = FormData(
        weight2=2 * k, level=1, psi=trivial_character(1), n0=0,
        a={}, b={-1: 1.0}, growth_C=4.0, exhaustive=True,
    )
    for phi in (BAT[2], BAT[5]):
        part = _nonhol_part(f, phi)
        assert abs(part.value[0] - part.y) < 1e-9 * max(abs(part.value[0]), abs(part.y))
        sv = lseries_series(f, phi)
        iv = lseries_integral(f, phi)
        assert abs(sv.value - iv.value) < 1e-9 * abs(iv.value)


def _bump_mp(mp, phi):
    c1, c2 = phi.support()
    return c1, c2, lambda y: mp.exp(4 / mp.mpf(c2 - c1) ** 2 - 1 / ((y - c1) * (c2 - y)))


def _y_oracle(mp, k, phi, shift, n=1):
    """The b(-n) term at period 1 as a y-integral, lambda = 2 pi n:
    lambda^shift int Gamma(1-k, 2 lambda y) e^{lambda y} y^shift phi(y) dy.
    Shift 0 is the plain series' term, shift 1 the delta_k series' b-part."""
    c1, c2, bump = _bump_mp(mp, phi)
    lam = 2 * mp.pi * n
    return lam ** shift * mp.quad(
        lambda y: mp.gammainc(1 - mp.mpf(k), 2 * lam * y) * mp.exp(lam * y) * y ** shift * bump(y),
        [c1, (c1 + c2) / 2, c2],
    )


def _t_oracle(mp, k, phi, shift):
    """The same term by the paper's t-integral,
    lambda^shift (2 lambda)^{1-k} int_0^inf (L phi_{2-k+shift})(lambda (2t+1)) (1+t)^{-k} dt.

    The transform is a tanh-sinh sum of step 1/32 over phi's support (its
    nodes whose weight is below 1e-3 eps of the largest are dropped), the
    t-integral mpmath's quadrature."""
    c1, c2, bump = _bump_mp(mp, phi)
    lam = 2 * mp.pi
    mid, half, h = (mp.mpf(c1) + c2) / 2, (mp.mpf(c2) - c1) / 2, mp.mpf(1) / 32
    nodes = []
    for i in range(-102, 103):  # |s| <= 3.2: the nodes reach the ends to 1e-17
        u = mp.pi / 2 * mp.sinh(i * h)
        y = mid + half * mp.tanh(u)
        if c1 < y < c2:
            nodes.append((y, h * half * mp.pi / 2 * mp.cosh(i * h) / mp.cosh(u) ** 2 * bump(y)))
    top = max(w for _, w in nodes)
    p = 1 - k + shift
    terms = [(-2 * lam * y, w * y ** p * mp.exp(-lam * y)) for y, w in nodes if w > 1e-3 * mp.eps * top]

    def integrand(t):
        return mp.fsum(w * mp.exp(t * a) for a, w in terms) * (1 + t) ** (-k)

    return lam ** shift * (2 * lam) ** (1 - k) * mp.quad(integrand, [0, 1, 4, 16, mp.inf])


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
        for v, q in ((part.value[0], part.err[0]), (part.y, part.y_err)):
            assert abs(v - ref) <= q, (phi.label, v, ref, q)
        sv, dv = lseries_series(f, phi), lseries_delta(f, phi)
        assert abs(sv.value - ref) <= sv.quad_err + sv.trunc_err
        assert abs(dv.value - ref_d) <= dv.quad_err + dv.trunc_err
        assert dv.quad_err <= 1e-13 * abs(ref_d)


@pytest.mark.parametrize("k", [0, -2, -10])
def test_moment_route_against_the_t_and_the_y_integral(k):
    # m = 1 - k = 1, 3 and 11 moment columns: the plain and the delta_k
    # b-part against the paper's t-integral and against the y-integral,
    # both in mpmath, each within the error the library reports
    mp = pytest.importorskip("mpmath")
    f = FormData(
        weight2=2 * k, level=1, psi=trivial_character(1), n0=0,
        a={}, b={-1: 1.0}, growth_C=4.0, exhaustive=True,
    )
    for phi in (BAT[0], BAT[5]):
        part = _nonhol_part(f, phi, delta=True)
        for shift, (v, q) in enumerate(zip(part.value, part.err)):
            with mp.workdps(20):
                ref_t = _t_oracle(mp, k, phi, shift)
            with mp.workdps(30):
                ref_y = _y_oracle(mp, k, phi, shift)
            assert abs(ref_t - ref_y) <= 1e-17 * abs(ref_y)
            for ref in (complex(ref_t), complex(ref_y)):
                assert abs(v - ref) <= q, (phi.label, shift, v, ref, q)


def test_half_integral_b_part_by_the_y_route_alone():
    # weight -19/2: m = 21/2 has no finite moment sum, so the y-route is
    # the value, plain and delta_k (over its y phi column), and checks none
    mp = pytest.importorskip("mpmath")
    f = FormData(
        weight2=-19, level=4, psi=trivial_character(4), n0=0,
        a={}, b={-1: 1.0}, growth_C=4.0, exhaustive=True,
    )
    for phi in (BAT[0], BAT[5]):
        part = _nonhol_part(f, phi, delta=True)
        assert (part.value[0], part.err[0]) == (part.y, part.y_err)
        for shift, (v, q) in enumerate(zip(part.value, part.err)):
            with mp.workdps(30):
                ref = complex(_y_oracle(mp, f.k, phi, shift))
            assert abs(v - ref) <= q, (phi.label, shift, v, ref, q)


def test_moment_weights_past_the_double_range_leave_the_y_route():
    # weight -100 (m = 101): (2 lambda)^100 overflows at n = -100, so the
    # y-route is the value, plain and delta_k, within its budgets
    mp = pytest.importorskip("mpmath")
    f = FormData(
        weight2=-200, level=1, psi=trivial_character(1), n0=0,
        a={}, b={-100: 1.0}, growth_C=4.0, exhaustive=True,
    )
    part = _nonhol_part(f, BAT[0], delta=True)
    assert (part.value[0], part.err[0]) == (part.y, part.y_err)
    with mp.workdps(30):
        refs = [complex(_y_oracle(mp, f.k, BAT[0], shift, n=100)) for shift in (0, 1)]
    for v, q, ref in zip(part.value, part.err, refs):
        assert abs(v - ref) <= q, (v, ref, q)
    sv = lseries_series(f, BAT[0])
    assert abs(sv.value - refs[0]) <= sv.quad_err


@pytest.mark.parametrize("n_terms", [12, 100])
def test_nonholomorphic_routes_agree(n_terms):
    # shadow Delta with 12 and with 100 b-terms on the whole battery: every
    # bump evaluates, and the routes agree far inside their cross-check
    g = _harmonic_form(n_terms)
    for phi in BAT:
        part = _nonhol_part(g, phi)
        assert abs(part.value[0] - part.y) <= 1e-14 * part.mass, phi.label
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
        for v, q in ((part.value[0], part.err[0]), (part.y, part.y_err)):
            assert abs(v - ref) <= q + ref_err, (phi.label, v, ref, q, ref_err)


def test_route_cross_check_fires_on_a_perturbed_route(monkeypatch):
    # on bump 9 the b-part is about 1e-10, under the old absolute 1e-6
    g = _harmonic_form(12)
    honest = lseries_module._nonhol_part

    def perturbed(*args, **kwargs):
        part = honest(*args, **kwargs)
        return replace(part, value=(part.value[0] + 1e-9 * part.mass, *part.value[1:]))

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
    # one integrand call per pass.  Seeded with phi's graded edges the
    # route settles in 1 to 3 passes on every battery bump; from one panel
    # per knot interval it took 5 to 11 (j744@768 on bump 9: 11)
    calls = []
    monkeypatch.setattr(
        lseries_module, "eval_iy", lambda *a, **k: calls.append(1) or eval_iy(*a, **k)
    )
    for name, prec in (("delta", 256), ("theta", 768), ("j744", 768)):
        f = fixture(name, prec)
        for j, phi in enumerate(BAT):
            calls.clear()
            iv = lseries_integral(f, phi)
            assert len(calls) <= 3, (name, j, len(calls))
            sv = lseries_series(f, phi)
            assert abs(iv.value - sv.value) <= 1e-12 * abs(sv.value), (name, j)


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
    # the moment route of the delta-op series against the direct
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
    skipped = lseries_module._mass_cut(ft._positive(), np.abs(avals), alpha, None)[1]
    return K * skipped[0], 2 * math.pi / ft.period * (K2 * skipped[1])


def test_cut_series_within_the_added_bound_of_the_full_range_sum():
    # the full-range sums take every stored n, on one laplace_many grid;
    # their rounding budget is that of the transforms plus 1e-16 of the mass
    checked = 0
    for f, chi, phi in _cut_instances():
        try:
            ft, rounding = lseries_module._twisted(f, chi)
            plain, delta = lseries_module._series_pair(ft, phi, True, rounding)
        except MembershipError:
            continue
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
    kept = lseries_module._mass_cut(f._positive(), np.abs(avals), alpha, None)[0][1]
    assert plain.n_terms < len(f.a) and delta.n_terms == np.count_nonzero(kept) < len(f.a)


def test_cut_does_not_depend_on_the_platforms_long_double(monkeypatch):
    # where long double is double its eps is 2^-52, not x87's 2^-63; the cut
    # keeps x87's constant, so its mask and skipped masses stay as they are
    f = fixture("delta", 768)
    cases = []
    for D in range(1, 6):
        for chi in characters_mod(D):
            ft = twist(f, chi)
            ns, avals = ft._arrays("a")
            for phi in BAT:
                alpha = 2 * math.pi * lseries_module._phi_mass(phi)[0] / ft.period
                cases.append((ft._positive(), np.abs(avals), alpha, 1e-16 * np.abs(avals)))
    x87 = [lseries_module._mass_cut(*case) for case in cases]
    monkeypatch.setattr(lseries_module, "_EPS_LD", 2.0 ** -52)
    for case, (keep, skipped, skipped_err) in zip(cases, x87):
        keep2, skipped2, skipped_err2 = lseries_module._mass_cut(*case)
        assert np.array_equal(keep2, keep) and skipped2 == skipped and skipped_err2 == skipped_err


def _mass_cut_over_every_index(ns, mags, alpha, errs):
    """The cut as it was taken over every index, masking the n > 0 with
    nonzero bounds afresh on each call: the reference of ``_mass_cut``."""
    row_n = np.array([[0.0], [1.0]])
    keep = np.zeros((2, len(ns)), dtype=bool)
    skipped = np.zeros(2)
    pos = ns > 0
    live = pos & (mags > 0)
    if live.any():
        n = ns[live]
        log_b = (np.log(mags[live]) - alpha * n) + row_n * np.log(n)
        top = log_b.max(axis=1, keepdims=True)
        rel = np.exp(log_b - top)
        summed = rel > (1e-3 * 2.0 ** -63 / len(ns)) * rel.sum(axis=1, keepdims=True)
        keep[:, live] = summed
        skipped = np.exp(top[:, 0]) * (rel * ~summed).sum(axis=1)
    if errs is None:
        return keep, skipped.tolist(), [0.0, 0.0]
    out = pos & (errs > 0)
    n = ns[out]
    charge = np.exp((np.log(errs[out]) - alpha * n) + row_n * np.log(n))
    return keep, skipped.tolist(), (charge * ~keep[:, out]).sum(axis=1).tolist()


def test_mass_cut_on_the_positive_terms_matches_the_cut_over_every_index():
    # bit for bit: the mask, the skipped bounds and the skipped charges, on
    # index sets with 0 and negative n, zero magnitudes and errors, and
    # magnitudes from 1e-300 to 1e300
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    magnitude = st.one_of(st.just(0.0), st.floats(1e-300, 1e300))
    index = st.integers(-20, 1000)

    @st.composite
    def cases(draw):
        ns = np.array(sorted(draw(st.sets(index, min_size=1, max_size=300))), dtype=np.int64)
        mags = np.array([draw(magnitude) for _ in ns])
        errs = np.array([draw(magnitude) for _ in ns]) if draw(st.booleans()) else None
        return ns, mags, draw(st.floats(1e-3, 20.0)), errs

    # a term left out next to one summed, whose relative bound e^-713.8
    # (first) or whose charge 4e-318 (second) lies in the subnormal range:
    # it alone makes up the skipped bounds or charges
    two = np.array([1, 2])

    @settings(max_examples=300, deadline=None)
    @example((two, np.array([1e10, math.e * 1e-300]), 1.0, None))
    @example((two, np.array([1e10, 1e-300]), 20.0, np.array([1e-300, 1e-300])))
    @given(cases())
    def check(case):
        ns, mags, alpha, errs = case
        form = FormData(weight2=12, level=1, psi=trivial_character(1), a=ArrayCoeffs(ns, mags + 0j))
        keep, skipped, skipped_err = lseries_module._mass_cut(form._positive(), mags, alpha, errs)
        keep_ref, skipped_ref, skipped_err_ref = _mass_cut_over_every_index(ns, mags, alpha, errs)
        assert np.array_equal(keep, keep_ref)
        assert [x.hex() for x in skipped + skipped_err] == [x.hex() for x in skipped_ref + skipped_err_ref]

    check()


# ---------------------------------------------------------------------------
# the series kernel against its form with each series written out


def _series_pair_written_twice(f, phi, delta, coeff_err=None):
    """``_series_pair`` as it was with every step written once for the plain
    series and once more for the delta_k series: the reference of the loop
    over rows, which must give its values, budgets and term counts bit for
    bit."""
    lm = lseries_module
    c1, _, K, K2 = lm._phi_mass(phi)
    alpha = lm._TWO_PI * c1 / f.period
    step = lm._TWO_PI / f.period
    tails = (lm._hol_tail(f, alpha, mass=K), lm._nonhol_series_tail(f, c1))
    if delta:
        tails += (lm._hol_tail(f, alpha, 1.0, K2), lm._nonhol_series_tail(f, c1, 1.0))
    if not all(map(math.isfinite, tails)):
        raise MembershipError(f"membership series for {phi.label!r} not certifiably convergent")
    phi2 = shift_s(phi, 2.0)
    ns, avals = f._arrays("a")
    neg = ns < 0
    keep, skipped, skipped_err = lm._mass_cut(f._positive(), np.abs(avals), alpha, coeff_err)
    plain = keep[0] | (ns == 0)
    deriv = keep[1] if delta else np.zeros_like(plain)
    table = plain | deriv
    if np.any(table):
        lv, le = lm.laplace_lattice((phi, phi2) if delta else (phi,), ns[table], step)
    series = {0: (plain, avals[plain], None if coeff_err is None else coeff_err[plain], phi)}
    if delta:
        nf = ns[deriv].astype(float)
        series[1] = (deriv, avals[deriv] * nf, None if coeff_err is None else coeff_err[deriv] * nf, phi2)
    series = {row: s for row, s in series.items() if np.any(s[0])}
    sums = dict(zip(series, lm._weighted_transform_sums([
        (test, coeffs, ns[mask], (lv[row][mask[table]], le[row][mask[table]]), err)
        for row, (mask, coeffs, err, test) in series.items()
    ], f.period)))
    value, quad = sums.get(0, (0.0 + 0.0j, 0.0))
    if np.any(neg):
        nv, ne = laplace_many((phi, phi2) if delta else (phi,), ns[neg] * step)
        value += complex(np.sum(avals[neg] * nv[0]))
        quad += float(np.sum(np.abs(avals[neg]) * ne[0]))
        if coeff_err is not None:
            quad += float(np.sum(coeff_err[neg] * np.abs(nv[0])))
    quad += K * skipped_err[0]
    trunc = tails[0] + K * skipped[0]
    n_terms = int(np.count_nonzero(plain | neg))
    if len(f.b):
        part = _nonhol_part(f, phi, delta)
        allowed = lm._ROUTE_AGREEMENT * part.mass + 10.0 * (part.err[0] + part.y_err)
        if not abs(part.value[0] - part.y) <= allowed:
            raise AccuracyError("nonholomorphic term cross-check failed", best=part.value[0])
        value += part.value[0]
        quad += part.err[0]
        trunc += tails[1]
        n_terms += len(f.b)
    base = lm.LValue(value, trunc, quad, n_terms, "series")
    if not delta:
        return base, None
    k = f.k
    value = 0.5 * k * base.value
    quad = abs(0.5 * k) * base.quad_err
    trunc = abs(0.5 * k) * base.trunc_err
    if 1 in sums:
        v, q = sums[1]
        value += -step * v
        quad += step * q
    if np.any(neg):
        weights = avals[neg] * ns[neg]
        value += -step * complex(np.sum(weights * nv[1]))
        quad += step * float(np.sum(np.abs(weights) * ne[1]))
        if coeff_err is not None:
            quad += step * float(np.sum(coeff_err[neg] * np.abs(ns[neg] * nv[1])))
    quad += step * K2 * skipped_err[1]
    trunc += step * (tails[2] + K2 * skipped[1])
    if len(f.b):
        value += part.value[1]
        quad += part.err[1]
        trunc += tails[3]
    n_terms = int(np.count_nonzero(deriv | neg)) + len(f.b)
    return base, lm.LValue(value, trunc, quad, n_terms, "series")


def _kernel_cases():
    """(form, coefficient errors) for delta, theta, e4 (an n = 0 term), j744
    and inv_delta (negative n), and data with several negative indices,
    twisted mod D = 1, 3, 4 and 5 where D is coprime to the level, and the
    harmonic g (a b-part) untwisted."""
    rng = np.random.default_rng(7)
    several = FormData(
        weight2=-20, level=1, psi=trivial_character(1), n0=7,
        a={n: complex(*rng.normal(size=2)) for n in range(-7, 40)},
        b={}, growth_C=4.0, label="several", exhaustive=True,
    )
    for f in (*(fixture(name, 256) for name in ("delta", "theta", "e4", "j744", "inv_delta")), several):
        for D in (1, 3, 4, 5):
            if math.gcd(D, f.level) == 1:
                for chi in characters_mod(D):
                    yield lseries_module._twisted(f, chi)
    yield _harmonic_form(12), None


def test_series_kernel_equals_the_series_written_twice():
    # repr-identical LValue pairs, or the same error raised, plain and with
    # delta_k, over every case on three bumps
    checked = 0
    for form, rounding in _kernel_cases():
        for phi in (BAT[0], BAT[5], BAT[9]):
            for delta in (False, True):
                outcomes = []
                for kernel in (lseries_module._series_pair, _series_pair_written_twice):
                    try:
                        outcomes.append(repr(kernel(form, phi, delta, rounding)))
                    except MembershipError as exc:
                        outcomes.append(f"MembershipError {exc}")
                assert outcomes[0] == outcomes[1], (form.label, phi.label, delta)
                checked += not outcomes[0].startswith("MembershipError")
    assert checked >= 200, checked
