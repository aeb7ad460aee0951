"""Test-function algebra, quadrature engine, Laplace transforms."""

import math
from dataclasses import replace

import numpy as np
import pytest

from maass_lseries.errors import AccuracyError, DomainError
from maass_lseries.specials import _matmul
from maass_lseries.testfn import (
    _DERIVED,
    _LOG_TINY,
    _SEED_LEVELS,
    TestFunction,
    _Layout,
    _exp_normal,
    _graded_edges,
    _leggauss_longdouble,
    _running_powers,
    _sampled_grid,
    derivative,
    eval_at,
    laplace,
    laplace_lattice,
    laplace_many,
    quadrature,
    shift_s,
    slash_W,
    standard_battery,
)


# ---------------------------------------------------------------------------
# quadrature


def test_quadrature_polynomial():
    v, e = quadrature(lambda x: x, 0, 1)
    assert abs(v - 0.5) < 1e-14 and e < 1e-12


def test_quadrature_exponential_semi_infinite():
    v, e = quadrature(lambda x: math.exp(-x), 0, math.inf, decay_rate=1.0)
    assert abs(v - 1.0) < 1e-12


def test_quadrature_gaussian_vs_simpson_oracle():
    v, _ = quadrature(
        lambda x: np.exp(-x * x), 0, math.inf,
        rel_tol=1e-12, decay_rate=1.0, vectorized=True,
    )
    # high-resolution Simpson oracle on [0, 12]
    xs = np.linspace(0.0, 12.0, 2 ** 16 + 1)
    ys = np.exp(-xs * xs)
    h = xs[1] - xs[0]
    simp = (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum()) * h / 3
    assert abs(v - simp) < 1e-10
    assert abs(v - math.sqrt(math.pi) / 2) < 1e-10


def test_quadrature_needs_decay_hint():
    with pytest.raises(DomainError):
        quadrature(lambda x: math.exp(-x), 0, math.inf)


def test_quadrature_reports_failure_with_best_estimate():
    # a spike the subdivision budget cannot resolve at the requested rel_tol
    with pytest.raises(AccuracyError) as exc:
        quadrature(
            lambda x: 1.0 / (1e-14 + (x - 0.3141) ** 2), 0, 1,
            rel_tol=1e-13, max_subdiv=3,
        )
    assert exc.value.best is not None


def test_quadrature_budget_caps_the_passes():
    # a vectorized integrand: the budget of 3 bisections holds across passes,
    # and the error carries the best estimate
    nodes = []

    def f(xs):
        nodes.append(len(xs))
        return np.abs(xs - 0.3) ** -0.9

    with pytest.raises(AccuracyError) as exc:
        quadrature(f, 0.0, 1.0, vectorized=True, max_subdiv=3)
    assert exc.value.best is not None and exc.value.err_est > 0
    assert sum(nodes) <= 15 * (1 + 2 * 3)


@pytest.mark.parametrize("f, lo, hi, ref", [
    # values of the one-panel-at-a-time quadrature the passes replaced
    (lambda x: math.sqrt(x) * math.log(1.0 + x), 0.0, 2.0, 1.426347068120945),
    (lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2), 0.0, 1.0, 309.398691512415),
])
def test_quadrature_passes_keep_pointwise_values(f, lo, hi, ref):
    v, e = quadrature(f, lo, hi)
    assert abs(v - ref) <= 1e-15 * abs(ref)
    assert e <= 1e-12 * abs(v)


def test_quadrature_reversed_limits_negate_the_integral():
    v, e = quadrature(lambda x: x, 1.0, 0.0)
    assert abs(v + 0.5) < 1e-14 and e < 1e-12
    f = lambda xs: np.exp(-xs)
    forward = quadrature(f, 0.5, 2.0, vectorized=True)
    assert quadrature(f, 2.0, 0.5, vectorized=True) == (-forward[0], forward[1])
    # an unconverged integral carries the negated best estimate too
    spike = lambda x: 1.0 / (1e-14 + (x - 0.3141) ** 2)
    bests = []
    for a, b in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(AccuracyError) as exc:
            quadrature(spike, a, b, rel_tol=1e-13, max_subdiv=3)
        bests.append(exc.value.best)
    assert bests[1] == -bests[0]


@pytest.mark.parametrize("a, b", [
    (math.inf, 0.0), (-math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0), (0.0, math.nan),
])
def test_quadrature_needs_a_finite_lower_limit(a, b):
    with pytest.raises(DomainError):
        quadrature(lambda x: math.exp(-abs(x)), a, b, decay_rate=1.0)


def test_exp_normal_is_exp_with_subnormals_flushed():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra.numpy import arrays

    tiny = np.finfo(np.float64).tiny

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(arrays(np.float64, st.integers(1, 64), elements=st.floats(-800.0, 10.0)))
    def check(arg):
        ref = np.exp(arg)
        ref[ref < tiny] = 0.0
        assert np.array_equal(_exp_normal(arg.copy()).view(np.int64), ref.view(np.int64))

    check()
    # either side of the threshold, where a rounding of log(tiny) would err
    edge = np.nextafter(_LOG_TINY, -np.inf)
    assert _exp_normal(np.array([_LOG_TINY]))[0] >= tiny and np.exp(edge) < tiny
    out = _exp_normal(np.array([edge, math.nan]))
    assert out[0] == 0.0 and math.isnan(out[1])  # a NaN is not hidden


# ---------------------------------------------------------------------------
# variants and modifiers


def test_bump_support_and_values():
    phi = TestFunction.bump(1, 2)
    assert eval_at(phi, 1.5) == 1.0  # normalized peak
    assert eval_at(phi, 3.0) == 0.0
    assert eval_at(phi, 0.5) == 0.0
    assert phi.support() == (1.0, 2.0)
    with pytest.raises(DomainError):
        TestFunction.bump(2, 1)
    with pytest.raises(DomainError):
        eval_at(phi, -1.0)


def test_trunc_power_eval():
    tp = TestFunction.trunc_power(2.0, 1.0)
    assert abs(eval_at(tp, 3.0) - 3.0) < 1e-14
    assert eval_at(tp, 0.5) == 0.0


def test_shift_s_identity_and_composition():
    phi = TestFunction.bump(1, 2)
    assert shift_s(phi, 1) is phi
    xs = np.array([1.2, 1.5, 1.9])
    p3 = shift_s(phi, 3)
    assert np.allclose(p3.eval_many(xs), xs ** 2 * phi.eval_many(xs), rtol=1e-14)
    # composition adds exponents: (phi_s)_t = phi_{s+t-1}
    a = shift_s(shift_s(phi, 2.5), 0.5)
    b = shift_s(phi, 2.0)
    assert np.allclose(a.eval_many(xs), b.eval_many(xs), rtol=1e-14)


def test_slash_action_pointwise():
    phi = TestFunction.bump(1, 2)
    pw = slash_W(phi, 2.0, 1)
    x = 0.75
    assert abs(eval_at(pw, x) - x ** -2 * eval_at(phi, 1 / x)) < 1e-14
    # support of the slash is the reciprocal interval
    assert slash_W(phi, 0.0, 1).support() == (0.5, 1.0)


def test_slash_involution():
    phi = TestFunction.bump(1, 2)
    rng = np.random.default_rng(3)
    xs = rng.uniform(1.01, 1.99, 100)
    for a, M in ((2.0, 1), (-10.0, 1), (0.5, 4), (1.5, 3)):
        pww = slash_W(slash_W(phi, a, M), a, M)
        lhs = pww.eval_many(xs)
        rhs = M ** (-a) * phi.eval_many(xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(M ** -a, 1.0)


def test_slash_on_trunc_power():
    # (x^{s-1} 1_{x>T}) |_a W_1 = x^{a... }: direct formula at one point
    tp = TestFunction.trunc_power(1.5, 2.0)
    sw = slash_W(tp, 0.5, 1)
    x = 0.25  # 1/x = 4 > T
    expect = x ** -0.5 * (1 / x) ** 0.5
    assert abs(eval_at(sw, x) - expect) < 1e-14
    assert eval_at(sw, 0.9) == 0.0  # 1/x < T


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_order_zero_and_fundamental_theorem():
    phi = TestFunction.bump(1, 2)
    assert derivative(phi, 0) is phi
    d1 = derivative(phi, 1)
    v, e = quadrature(lambda xs: d1.eval_many(xs), 1, 2, vectorized=True)
    assert abs(v) < 1e-13


def test_derivative_spline_cubic():
    sp = TestFunction.spline([1.0, 2.0], [[0.0, 0.0, 0.0, 1.0]])  # x^3
    d2 = derivative(sp, 2)
    assert abs(eval_at(d2, 1.5) - 9.0) < 1e-12  # 6x at x = 1.5


def test_derivative_vanishing_moments():
    # int phi^{(m)}(x) x^j dx = 0 for j <= m-1 (compact support by parts)
    phi = TestFunction.bump(1, 2)
    for m in (1, 2, 3):
        dm = derivative(phi, m)
        for j in range(m):
            v, _ = quadrature(
                lambda xs: dm.eval_many(xs) * xs ** j, 1, 2, vectorized=True
            )
            assert abs(v) < 1e-11


def test_derivative_requires_plain_variant():
    phi = TestFunction.bump(1, 2)
    with pytest.raises(DomainError):
        derivative(slash_W(phi, 1.0, 1), 1)
    with pytest.raises(DomainError):
        derivative(TestFunction.trunc_power(2.0, 1.0), 1)


def test_laplace_derivative_rule():
    # (L phi^{(m)})(u) = u^m (L phi)(u) for compactly supported smooth phi
    phi = TestFunction.bump(1, 2)
    u = 2 * math.pi
    base = laplace(phi, u)
    for m in (1, 2, 3):
        dm = derivative(phi, m)
        assert abs(laplace(dm, u) - u ** m * base) < 1e-12 * abs(u ** m * base)


def test_bspline_partition_and_smoothness():
    b3 = TestFunction.bspline(3, 0.5, 4.5)
    v, _ = quadrature(
        lambda x: b3.eval_many(x), 0.5, 4.5, knots=b3.knots(), vectorized=True
    )
    assert abs(v - 1.0) < 1e-12  # scale * int B_3 = (4/(3+1)) * 1
    for m in (0, 1, 2):
        d = derivative(b3, m)
        jump = abs(eval_at(d, 1.5 - 1e-11) - eval_at(d, 1.5 + 1e-11))
        assert jump < 1e-8


def test_bspline_high_order_laplace_rule():
    b11 = TestFunction.bspline(11, 1.0, 3.0)
    u = 2 * math.pi
    d11 = derivative(b11, 11)
    lhs = laplace(d11, u)
    rhs = u ** 11 * laplace(b11, u)
    assert abs(lhs - rhs) < 1e-10 * abs(rhs)


# ---------------------------------------------------------------------------
# Laplace transform


def test_laplace_box_closed_form():
    box = TestFunction.spline([0.0, 1.0], [[1.0]])
    for s in (1.0, 2.0, 6.283):
        assert abs(laplace(box, s) - (1 - math.exp(-s)) / s) < 1e-13


def test_laplace_trunc_power_closed_form():
    tp = TestFunction.trunc_power(2.0, 1.0)
    assert abs(laplace(tp, 1.0) - 2 / math.e) < 1e-13
    # continuation: u < 0 gives u^{-s} Gamma(s, uT); at u = -2,
    # Gamma(2,-2) = -e^2 and (-2)^{-2} = 1/4
    assert abs(laplace(tp, -2.0) - (-math.e ** 2 / 4)) < 1e-12
    # s = 0 diverges for Re(sigma) >= 0, converges to -T^s/s for Re < 0
    with pytest.raises(DomainError):
        laplace(tp, 0.0)
    tpn = TestFunction.trunc_power(-1.0, 2.0)
    assert abs(laplace(tpn, 0.0) - (2.0 ** -1.0)) < 1e-14


def test_laplace_slashed_trunc_power_unsupported():
    sw = slash_W(TestFunction.trunc_power(2.0, 1.0), 0.5, 1)
    with pytest.raises(DomainError):
        laplace(sw, 1.0)


def test_laplace_bump_vs_fine_oracle():
    phi = TestFunction.bump(1, 2)
    s = 2 * math.pi
    val = laplace(phi, s)
    # 10x finer fixed Simpson oracle
    xs = np.linspace(1.0, 2.0, 2 ** 17 + 1)
    ys = phi.eval_many(xs) * np.exp(-s * xs)
    h = xs[1] - xs[0]
    simp = (ys[0] + ys[-1] + 4 * ys[1::2].sum() + 2 * ys[2:-1:2].sum()) * h / 3
    assert abs(val - simp) < 1e-10 * abs(simp)


def test_laplace_linearity():
    rng = np.random.default_rng(5)
    a = TestFunction.bump(0.5, 1.5)
    b = TestFunction.bump(1.0, 3.0)
    for _ in range(5):
        al, be = rng.normal(size=2)
        s = rng.uniform(0.5, 8.0)
        lhs = al * laplace(a, s) + be * laplace(b, s)
        # no linear-combination type; compare against summed quadratures
        v, _ = quadrature(
            lambda xs: (al * a.eval_many(xs) + be * b.eval_many(xs)) * np.exp(-s * xs),
            0.5, 3.0, knots=(1.0, 1.5), vectorized=True, rel_tol=1e-13,
        )
        assert abs(lhs - v) < 1e-11 * max(abs(lhs), abs(v), 1e-12)


def test_laplace_decay_envelope():
    # |(L phi)(x)| <= sup|phi| (c2-c1) e^{-x c1} for the whole battery
    for phi in standard_battery():
        c1, c2 = phi.support()
        for x in (0.5, 2.0, 10.0):
            bound = (c2 - c1) * math.exp(-x * c1)
            assert abs(laplace(phi, x)) <= bound * 1.0000001


def test_laplace_many_matches_adaptive():
    phi = standard_battery()[8]
    us = np.array([-2 * math.pi, -1.0, 0.0, 1.0, 2 * math.pi, 120.0, 900.0])
    vals, errs = laplace_many(phi, us)
    for u, v in zip(us, vals):
        ref = laplace(phi, float(u))
        assert abs(v - ref) <= 5e-13 * max(abs(ref), 1e-300)


def test_laplace_many_longdouble_consistency():
    phi = standard_battery()[2]
    us = np.array([1.0, 2 * math.pi, 30.0])
    v64, _ = laplace_many(phi, us)
    vld, _ = laplace_many(phi, us.astype(np.longdouble), dtype=np.longdouble)
    assert np.max(np.abs(v64 - vld.astype(float)) / np.abs(v64)) < 1e-13


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_laplace_many_sequence_matches_single_calls(dtype):
    # phi, phi x and phi x^{5/2}, plain and slashed, share support and knots
    for phi in (standard_battery()[4], slash_W(standard_battery()[7], -4.0, 4)):
        phis = (phi, shift_s(phi, 2.0), shift_s(phi, 3.5))
        us = np.arange(0, 480, dtype=dtype) * (2 * math.pi / 3)
        vals, errs = laplace_many(phis, us, dtype)
        assert vals.shape == errs.shape == (3, len(us))
        for row, p in enumerate(phis):
            v1, e1 = laplace_many(p, us, dtype)
            # these test functions are positive, so a transform is its terms'
            # mass sum |w phi e^{-u x}|; BLAS sums a matrix product and a
            # matrix-vector product in different orders, which measured up
            # to 1.5e-15 of that mass
            mass = v1
            assert np.all(np.abs(vals[row] - v1) <= 4e-15 * mass)
            assert np.all(np.abs(errs[row] - e1) <= 4e-15 * e1)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_laplace_many_node_pruning_matches_the_full_grid(dtype):
    # the nodes where every test function is exactly 0 leave the matrix; a
    # constant with the same support and knots is nonzero on every node, so
    # adding it to the tuple keeps the full grid and its other rows are the
    # unpruned transforms
    bat = standard_battery()
    for j, slash in ((0, None), (5, None), (9, (-10.0, 1))):
        phi = bat[j]
        one = TestFunction.spline(phi.support(), [[1.0]])
        if slash is not None:
            phi, one = slash_W(phi, *slash), slash_W(one, *slash)
        us = np.arange(0, 768, dtype=dtype) * (2 * math.pi / 5)
        phi2 = shift_s(phi, 2.0)
        full, full_errs = laplace_many((phi, phi2, one), us, dtype)
        single = laplace_many(phi, us, dtype)
        pair = laplace_many((phi, phi2), us, dtype)
        for row, (vals, errs) in ((0, single), (0, (pair[0][0], pair[1][0])),
                                  (1, (pair[0][1], pair[1][1]))):
            mass = full[row]  # positive test functions: the terms' mass
            assert np.all(np.abs(vals - full[row]) <= 4e-15 * mass), (j, row)
            assert np.all(np.abs(errs - full_errs[row]) <= 4e-15 * full_errs[row]), (j, row)


def test_laplace_many_sequence_needs_common_support():
    phi = standard_battery()[2]
    with pytest.raises(DomainError):
        laplace_many((phi, standard_battery()[3]), np.array([1.0]))


# ---------------------------------------------------------------------------
# transforms on the frequency lattice 2 pi n / D


def _ld_frequencies(ns, D):
    return ns.astype(np.longdouble) * (8 * np.arctan(np.longdouble(1)) / D)


def _lattice_cases():
    bat = standard_battery()
    for j in (0, 3, 6, 9):
        phi, phi_w = bat[j], slash_W(bat[j], 1.5, 4)
        yield phi
        yield (phi, shift_s(phi, 2.0))
        yield slash_W(phi, -10.0, 1)
        yield (phi_w, shift_s(phi_w, 2.0))
        yield shift_s(phi, 1.5 + 2.0j)  # complex samples


@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_laplace_lattice_matches_the_direct_path(D):
    # ranges from n = 0 and from n = 5, and indices with gaps
    step = 2 * math.pi / D
    gaps = np.sort(np.random.default_rng(D).choice(769, 400, replace=False))
    for phi in _lattice_cases():
        for ns in (np.arange(0, 769), np.arange(5, 300), gaps):
            direct, _ = laplace_many(phi, ns * step)
            vals, errs = laplace_lattice(phi, ns, step)
            assert vals.shape == errs.shape == direct.shape
            assert np.all(np.abs(vals - direct) <= errs)


def test_laplace_lattice_keeps_sparse_indices_on_the_direct_path():
    # theta's squares: 28 indices over a span of 730 would take 28 + 27
    # exponentials per node factorized, more than directly
    ns = np.arange(28) ** 2
    step = 2 * math.pi / 3
    phi = standard_battery()[4]
    for p in (phi, (phi, shift_s(phi, 2.0))):
        got = laplace_lattice(p, ns, step)
        want = laplace_many(p, ns * step)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_laplace_lattice_on_a_test_function_zero_at_every_node():
    # the grid keeps no node, and the lattice returns what the direct path
    # does (zeros) instead of failing to fold an empty table, in float64 and
    # in long double
    z = TestFunction.spline([1.0, 2.0], [[0.0]])
    ns = np.arange(1, 30)
    for phi in ((z, shift_s(z, 2.0)), z):
        for dtype in (np.float64, np.longdouble):
            got = laplace_lattice(phi, ns, dtype(0.5), dtype)
            want = laplace_many(phi, ns * dtype(0.5), dtype)
            assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))


def test_laplace_lattice_charges_what_underflows_to_its_error_column():
    # bump 9 at D = 1: every term e^{-2 pi n x} w phi(x) is below the
    # subnormal range once 2 pi n c1 > 745, and those transforms come back
    # as exact zeros; on bump 6 part of the giant table times the samples
    # underflows and is set to 0.  The long-double reference, with its wider
    # exponent range, stays within the error column on every row, the zeros
    # included, because what was dropped is charged to it.
    ns = np.arange(0, 769)
    step = 2 * math.pi
    bat = standard_battery()
    for phi in (bat[9], (bat[9], shift_s(bat[9], 2.0)), bat[6]):
        vals, errs = laplace_lattice(phi, ns, step)
        ref, _ = laplace_many(phi, _ld_frequencies(ns, 1), dtype=np.longdouble)
        assert np.all(np.abs(vals - ref) <= errs)
        assert np.all(errs > 0)
    c1 = bat[9].support()[0]
    vals, _ = laplace_lattice(bat[9], ns, step)
    assert np.all(vals[ns * step * c1 > 745.0] == 0.0)
    assert np.all(vals[ns * step * c1 < 700.0] > 0.0)


@pytest.mark.parametrize("D", [1, 3, 5])
def test_error_column_bounds_the_rounding_of_the_exponent(D):
    # fl(u x) is off by about |u x| eps, and so is e^{-u x} relatively; near
    # u c1 = 580 that exceeded a column of 50 eps sum |w phi e^{-u x}| alone
    # 12-fold.  With 4 eps |u| sum x |w phi e^{-u x}| added, both paths stay
    # within the column against long double (measured: 0.26 of it at most).
    ns = np.arange(0, 769)
    step = 2 * math.pi / D
    for phi in standard_battery():
        for p in (phi, slash_W(phi, -10.0, 1)):
            ref, _ = laplace_many(p, _ld_frequencies(ns, D), dtype=np.longdouble)
            for vals, errs in (laplace_many(p, ns * step), laplace_lattice(p, ns, step)):
                assert np.all(np.abs(vals - ref) <= errs), p.label


# ---------------------------------------------------------------------------
# the lattice in long double


_PI_LD = 4 * np.arctan(np.longdouble(1))
# the sums fe-check --fixture delta --dmax 5 escalates, as (bump j of the
# battery slashed by W_1 at a = -10, its trailing shift s, period, the
# indices recomputed in long double)
_REDO_SETS = (
    (8, 1.0, 1, np.arange(1, 30)),
    (8, 2.0, 1, np.arange(1, 34)),
    (9, 1.0, 4, np.setdiff1d(np.arange(2, 189, 2), [162, 172, 176, 178, 180, 182, 184, 186])),
    (9, 1.0, 1, np.setdiff1d(np.arange(1, 45), [42, 43])),
    (9, 2.0, 1, np.setdiff1d(np.arange(1, 48), [43])),
)


def _assert_within_both_columns(got, want):
    (v, e), (r, re) = got, want
    assert v.dtype == r.dtype and e.dtype == re.dtype
    assert np.all(np.abs(v - r) <= e + re)


def _lattice_only(monkeypatch):
    """laplace_lattice with its direct fallback made to fail."""
    from maass_lseries import testfn

    def no_fallback(*args):
        raise AssertionError("laplace_lattice fell back to laplace_many")

    monkeypatch.setattr(testfn, "laplace_many", no_fallback)


@pytest.mark.parametrize("D", [1, 5])
def test_long_double_lattice_matches_the_direct_path(D, monkeypatch):
    # n = 1..200, single test functions and (phi, phi x) pairs, plain,
    # slashed and complex; at D = 1 bump 9's terms e^{-2 pi n x} w phi(x)
    # near its upper end fall below the long-double range from n = 160 on
    ns = np.arange(1, 201)
    step = 2 * _PI_LD / D
    want = [laplace_many(phi, ns * step, np.longdouble) for phi in _lattice_cases()]
    _lattice_only(monkeypatch)
    for phi, ref in zip(_lattice_cases(), want):
        _assert_within_both_columns(laplace_lattice(phi, ns, step, np.longdouble), ref)


def test_long_double_lattice_on_the_escalated_index_sets(monkeypatch):
    bat = standard_battery()
    cases = []
    for j, s, period, ns in _REDO_SETS:
        phi = shift_s(slash_W(bat[j], -10.0, 1), s)
        step = 2 * _PI_LD / period
        cases.append((phi, ns, step, laplace_many(phi, ns * step, np.longdouble)))
    _lattice_only(monkeypatch)
    for phi, ns, step, ref in cases:
        got = laplace_lattice(phi, ns, step, np.longdouble)
        _assert_within_both_columns(got, ref)
        # the running products are charged: the column exceeds the direct one
        assert np.all(got[1] > ref[1])


def test_long_double_lattice_keeps_the_direct_path_where_it_is_cheaper():
    # negative indices, and theta's squares: the product would cost more
    # than the exponentials it saves, so the call is laplace_many's, bit for bit
    phi = slash_W(standard_battery()[9], 1.5, 4)
    step = 2 * _PI_LD / 3
    for p in (phi, (phi, shift_s(phi, 2.0))):
        for ns in (np.arange(-3, 60), np.arange(21) ** 2):
            got = laplace_lattice(p, ns, step, np.longdouble)
            want = laplace_many(p, ns * step, np.longdouble)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_long_double_lattice_column_against_mpmath():
    # bump 9's largest escalated frequency, u = 2 pi 47 (and 2 pi 188 / 4):
    # the transforms of phi = bump 9 | W_1 at a = -10 and of phi x, to 30
    # digits, lie within the error column
    mp = pytest.importorskip("mpmath")
    bump9 = standard_battery()[9]
    phi = slash_W(bump9, -10.0, 1)
    c1, c2 = bump9.support()
    ns = np.arange(1, 48)
    vals, errs = laplace_lattice((phi, shift_s(phi, 2.0)), ns, 2 * _PI_LD, np.longdouble)
    with mp.workdps(30):
        a, b = mp.mpf(c1), mp.mpf(c2)
        lo, hi = 1 / b, 1 / a
        u = 2 * mp.pi * 47

        def phi_mp(x):  # x^10 bump(1/x)
            y = 1 / x
            return x ** 10 * mp.exp(4 / (b - a) ** 2 - 1 / ((y - a) * (b - y))) if a < y < b else 0

        def exact(v):  # a long double is the sum of two doubles
            hi = float(v)
            return mp.mpf(hi) + mp.mpf(float(v - np.longdouble(hi)))

        cuts = [lo + (hi - lo) * t for t in (0, mp.mpf(1) / 16, mp.mpf(1) / 4, mp.mpf(1) / 2,
                                             mp.mpf(3) / 4, mp.mpf(15) / 16, 1)]
        for row, power in enumerate((0, 1)):
            # mpmath stops on an absolute error: scale by e^{u lo} and back
            scaled = mp.quad(lambda x: phi_mp(x) * x ** power * mp.exp(-u * (x - lo)), cuts)
            ref = mp.exp(-u * lo) * scaled
            err = abs(exact(vals[row, -1]) - ref)
            assert err <= exact(errs[row, -1]), (row, err, errs[row, -1], ref)


# ---------------------------------------------------------------------------
# the distinct columns of the transform product


_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps


def _full_columns(x, wf):
    """All 3 m columns, each written out: w phi, |w phi| and x |w phi|."""
    mag = np.abs(wf)
    return np.concatenate([wf, mag, x[:, None] * mag], axis=1)


def _full_split(out, us, wf, unit):
    m = wf.shape[1]
    floor = unit * (2 * np.count_nonzero(wf, axis=0) + np.sum(np.abs(wf), axis=0))
    errs = 50 * _EPS * np.abs(out[:, m:2 * m]).T
    errs = errs + 4 * _EPS * np.abs(us) * np.abs(out[:, 2 * m:]).T + floor[:, None]
    return out[:, :m].T, errs


def _value_tol(phis, us, values):
    """1e-15 of |value| for signed or complex samples, which keep all 3 m
    columns.  Nonnegative samples take fewer, and BLAS may sum a product
    with fewer columns over the nodes in another order; that moved their
    values, each its own mass, by up to 1.7e-15 relative, so they are
    held to 4e-15."""
    wf = _sampled_grid(phis, us, np.float64)[1]
    return (1e-15 if np.iscomplexobj(wf) or np.any(wf < 0) else 4e-15) * np.abs(values)


def _many_3m(phis, us):
    x, wf, _ = _sampled_grid(phis, us, np.float64)
    E = _exp_normal(np.multiply.outer(-us, x))
    return _full_split(_matmul(E, _full_columns(x, wf)), us, wf, _TINY)


def _lattice_3m(phis, ns, step):
    x, wf, _ = _sampled_grid(phis, ns * step, np.float64)
    n0, n1 = int(ns.min()), int(ns.max())
    B = math.isqrt(n1 - n0) + 1
    Q = (n1 - n0) // B + 1
    baby = _exp_normal(np.multiply.outer(np.arange(B) * -step, x))
    giant = _exp_normal(np.multiply.outer(x, (n0 + B * np.arange(Q)) * -step))
    folded = np.einsum("jq,jc->jqc", giant, _full_columns(x, wf)).reshape(len(x), -1)
    parts = folded.view(np.float64)
    parts[np.abs(parts) < _TINY] = 0.0
    table = _matmul(baby, folded).reshape(B, Q, -1)
    return _full_split(table[(ns - n0) % B, (ns - n0) // B], ns * step, wf, _TINY)


def _column_cases():
    bat = standard_battery()
    signed = derivative(TestFunction.bspline(3, 1.0, 2.0), 1)  # negative pieces
    for phi in (bat[0], bat[5], slash_W(bat[7], -10.0, 1), shift_s(bat[3], 0.5), signed):
        yield (phi,)
        yield (phi, shift_s(phi, 2.0))
    yield (shift_s(bat[4], 1.5 + 2.0j),)  # complex samples


def _assert_same(got, want, value_tol):
    """Values within ``value_tol`` and errors within 1e-12 of theirs."""
    (v, e), (v3, e3) = got, want
    assert np.all(np.abs(v - v3) <= value_tol)
    assert np.all(np.abs(e - e3) <= 1e-12 * e3)


def test_columns_keep_one_copy_of_each_column():
    bat = standard_battery()
    phi = bat[6]
    x, wf, layout = _sampled_grid((phi, shift_s(phi, 2.0)), np.array([100.0]), np.float64)
    assert np.array_equal(wf[:, 1], x * wf[:, 0])  # phi x is sampled as x times phi
    cols = layout.columns(x, wf)
    assert cols.shape[1] == 3
    assert (layout.value, layout.mass, layout.xmass) == (slice(0, 2), slice(0, 2), slice(1, 3))
    full = _full_columns(x, wf)
    assert np.array_equal(np.concatenate([cols[:, :2], cols[:, :2], cols[:, 1:]], axis=1), full)
    for signed in (-wf, wf * (1 + 1j)):
        layout = _Layout.of(signed, [True])
        assert np.array_equal(layout.columns(x, signed), _full_columns(x, signed))
        assert (layout.mass, layout.xmass) == (slice(2, 4), slice(4, 6))


# The parent route of the layout: the distinct columns found by comparing
# them, and the values and errors read back through their index map.


def _columns_by_comparison(x, wf):
    m = wf.shape[1]
    if np.iscomplexobj(wf) or (wf < 0).any():
        mag = np.abs(wf)
        return np.concatenate([wf, mag, x[:, None] * mag], axis=1), np.arange(3 * m)
    xw = x[:, None] * wf
    idx, extra = [*range(m), *range(m)], []
    for j in range(m):
        if j + 1 < m and (xw[:, j] == wf[:, j + 1]).all():
            idx.append(j + 1)
        else:
            idx.append(m + len(extra))
            extra.append(j)
    return np.concatenate([wf, xw[:, extra]], axis=1), np.array(idx)


def _split_by_index(out, idx, us, wf, unit, powers=0):
    m = wf.shape[1]
    eps = float(np.finfo(out.real.dtype).eps)
    floor = unit * (2 * np.count_nonzero(wf, axis=0) + np.sum(np.abs(wf), axis=0))
    vals = out[:, idx[:m]].T
    errs = ((50.0 + powers) * eps) * np.abs(out[:, idx[m:2 * m]]).T
    errs = errs + (4.0 * eps) * np.abs(us) * np.abs(out[:, idx[2 * m:]]).T + floor[:, None]
    return vals, errs


def _layout_cases():
    bat = standard_battery()
    signed = derivative(TestFunction.bspline(3, 1.0, 2.0), 1)  # negative pieces
    for phi in (bat[2], slash_W(bat[9], -10.0, 1), shift_s(bat[4], 1.5 + 2.0j), signed):
        phi_x = shift_s(phi, 2.0)
        yield (phi,)
        yield (phi, phi_x)
        yield (phi_x, phi)  # x^-1 times the one before: not a chain
    # the b-part's moment columns phi, phi y, ..., phi y^11 (``lseries._nonhol_part``)
    yield tuple(shift_s(bat[3], j + 1.0) for j in range(12))
    # a chain broken by a member sampled on its own
    yield (bat[5], shift_s(bat[5], 2.0), TestFunction.spline(bat[5].support(), [[1.0]]))


def _many_by_comparison(phis, us):
    x, wf, _ = _sampled_grid(phis, us, np.float64)
    cols, idx = _columns_by_comparison(x, wf)
    return _split_by_index(_matmul(_exp_normal(np.multiply.outer(-us, x)), cols), idx, us, wf, _TINY)


def _lattice_by_comparison(phis, ns, step, dtype):
    x, wf, _ = _sampled_grid(phis, ns * step, dtype)
    n0, n1 = int(ns.min()), int(ns.max())
    B = math.isqrt(n1 - n0) + 1
    Q = (n1 - n0) // B + 1
    longdouble = dtype is np.longdouble
    if longdouble:
        baby, giant = _running_powers(x, step, n0, B, Q)
        unit = (B + Q) * np.finfo(dtype).smallest_subnormal
    else:
        baby = _exp_normal(np.multiply.outer(np.arange(B) * -step, x))
        giant = _exp_normal(np.multiply.outer(x, (n0 + B * np.arange(Q)) * -step))
        unit = _TINY
    cols, idx = _columns_by_comparison(x, wf)
    folded = np.einsum("jq,jc->jqc", giant, cols).reshape(len(x), -1)
    if not longdouble:
        parts = folded.view(np.float64)
        parts[np.abs(parts) < unit] = 0.0
    table = _matmul(baby, folded).reshape(B, Q, -1)
    out = table[(ns - n0) % B, (ns - n0) // B]
    return _split_by_index(out, idx, ns * step, wf, unit, B + Q + 3 if longdouble else 0)


def _assert_identical(got, want, label):
    for a, b in zip(got, want):
        a = np.atleast_2d(a)
        assert a.dtype == b.dtype and np.array_equal(a, b), label


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_layout_matches_comparing_the_columns(dtype, monkeypatch):
    # the columns of the product, and the values and errors read through the
    # layout, equal bit for bit those of comparing the columns, on the direct
    # path and on the lattice
    ns = np.arange(1, 200)
    step = dtype(2 * math.pi / 3)
    cases = list(_layout_cases())
    for phis in cases:
        x, wf, layout = _sampled_grid(phis, ns * step, dtype)
        cols = _columns_by_comparison(x, wf)[0]
        assert layout.columns(x, wf).dtype == cols.dtype and np.array_equal(layout.columns(x, wf), cols)
        if dtype is np.float64:
            want = _many_by_comparison(phis, ns * step)
            _assert_identical(laplace_many(phis, ns * step), want, phis[0].label)
            if len(phis) == 1:
                _assert_identical(laplace_many(phis[0], ns * step), want, phis[0].label)
    _lattice_only(monkeypatch)
    for phis in cases:
        want = _lattice_by_comparison(phis, ns, step, dtype)
        _assert_identical(laplace_lattice(phis, ns, step, dtype), want, phis[0].label)


@pytest.mark.parametrize("D", [1, 3, 5])
def test_transforms_on_distinct_columns_match_the_full_product(D):
    step = 2 * math.pi / D
    ns = np.arange(0, 769)
    for phis in _column_cases():
        want = _many_3m(phis, ns * step)
        tol = _value_tol(phis, ns * step, want[0])
        _assert_same(laplace_many(phis, ns * step), want, tol)
        _assert_same(laplace_lattice(phis, ns, step), _lattice_3m(phis, ns, step), tol)
        if len(phis) == 1:
            got = laplace_many(phis[0], ns * step)
            _assert_same((got[0][None], got[1][None]), want, tol)


# ---------------------------------------------------------------------------
# graded panels


GRADED_PHIS = (
    standard_battery()[9],
    slash_W(standard_battery()[7], -4.0, 4),
    TestFunction.spline([1.0, 1.25, 2.0, 3.0], [[1.0], [1.0, 2.0], [0.5, 0.0, 1.0]]),
)


@pytest.mark.parametrize("phi", GRADED_PHIS, ids=lambda p: p.label)
def test_graded_edges_are_the_knots_and_the_dyadic_points(phi):
    lo, hi = phi.support()
    w = hi - lo
    for levels in (1, _SEED_LEVELS, 20):
        edges = _graded_edges(phi, levels)
        dyadic = {lo + w / 2.0 ** j for j in range(1, levels + 1)}
        dyadic |= {hi - w / 2.0 ** j for j in range(1, levels + 1)}
        assert edges == tuple(sorted(set(phi.knots()) | {lo, hi} | dyadic))
        assert edges[0] == lo and edges[-1] == hi
        assert all(p < q for p, q in zip(edges, edges[1:]))


def _sampled_grid_inline(phis, us, dtype, order):
    """``_sampled_grid`` with its edges built inline, as before
    ``_graded_edges``, and every node sampled: a member that differs from
    the one before it only by its trailing shift is that column times
    x^(s - s_prev), any other is sampled on its own, and the rows where
    every column vanishes are dropped after stacking.  The reference for
    ``_graded_edges`` and for ``_sample``'s liveness test."""
    phi = phis[0]
    lo, hi = phi.support()
    knots = phi.knots()
    width = hi - lo
    u_scale = float(np.max(np.abs(us.astype(float)), initial=1.0))
    levels = min(48, max(13, int(math.ceil(math.log2(max(u_scale * width / 20.0, 2.0)))) + 2))
    edges = set(knots) | {lo, hi}
    for j in range(1, levels + 1):
        d = width / 2.0 ** j
        edges.add(lo + d)
        edges.add(hi - d)
    if np.dtype(dtype) == np.dtype(np.longdouble):
        xg, wg = _leggauss_longdouble(order)
    else:
        xg, wg = np.polynomial.legendre.leggauss(order)
    edges = np.array(sorted(edges), dtype=dtype)
    a, b = edges[:-1, None], edges[1:, None]
    h = 0.5 * (b - a)
    x = (0.5 * (a + b) + h * xg).ravel()
    w = (h * wg).ravel()
    cols = [w * phi.eval_many(x)]
    for prev, p in zip(phis, phis[1:]):
        (s, s_p) = (q.ops[-1][1] if q.ops and q.ops[-1][0] == "shift" else 1.0 for q in (prev, p))
        pre, pre_p = (q.ops[:-1] if q.ops and q.ops[-1][0] == "shift" else q.ops for q in (prev, p))
        if p.base is prev.base and pre == pre_p:
            cols.append(cols[-1] * x ** (s_p - s))
        else:
            cols.append(w * p.eval_many(x))
    wf = np.stack(cols, axis=1)
    live = np.any(wf != 0, axis=1)
    return x[live], wf[live]


@pytest.mark.parametrize("phi", GRADED_PHIS, ids=lambda p: p.label)
@pytest.mark.parametrize("dtype, order", [(np.float64, 32), (np.longdouble, 40)])
def test_sampled_grid_is_unchanged_by_graded_edges(phi, dtype, order):
    # from the fewest levels (13) to many (a frequency of 2e5), with 32
    # Gauss points a panel in float64 and 40 in long double
    for us in ([1.0], np.arange(768) * (2 * math.pi / 5), [2e5]):
        us = np.asarray(us, dtype=dtype)
        x, wf, _ = _sampled_grid((phi,), us, dtype)
        x_ref, wf_ref = _sampled_grid_inline((phi,), us, dtype, order)
        assert x.dtype == np.dtype(dtype)
        assert np.array_equal(x, x_ref) and np.array_equal(wf, wf_ref)
    if phi is GRADED_PHIS[2]:  # a spline: no node underflows to 0 and drops out
        x, _, _ = _sampled_grid((phi,), np.array([1.0], dtype=dtype), dtype)
        edges = np.array(_graded_edges(phi, 13))  # the levels at u = 1
        assert np.all(np.histogram(x.astype(float), bins=edges)[0] == order)


def _sampling_cases():
    bat = standard_battery()
    signed = derivative(TestFunction.bspline(3, 1.0, 2.0), 1)  # negative pieces
    slashed = slash_W(bat[9], -10.0, 1)
    for phi in (bat[0], bat[6], slashed, slash_W(bat[3], 1.5, 4), signed):
        yield (phi,)
        yield (phi, shift_s(phi, 2.0), shift_s(phi, 3.0))  # phi, phi x, phi x^2
    yield (shift_s(bat[4], 1.5 + 2.0j), shift_s(bat[4], 2.5 + 2.0j))  # complex samples
    # a member sampled on its own after a chain, nonzero where the bump
    # underflows: every such member decides which nodes live
    yield (bat[5], shift_s(bat[5], 2.0), TestFunction.spline(bat[5].support(), [[1.0]]))


@pytest.mark.parametrize("dtype, order", [(np.float64, 32), (np.longdouble, 40)])
def test_sampled_grid_matches_sampling_every_node(dtype, order):
    # _sample reads liveness from the members it samples on their own and
    # forms the others on the live nodes alone; nodes and samples are those
    # of sampling every node, bit for bit
    for phis in _sampling_cases():
        for us in ([1.0], np.arange(768) * (2 * math.pi / 5)):
            us = np.asarray(us, dtype=dtype)
            x, wf, _ = _sampled_grid(phis, us, dtype)
            x_ref, wf_ref = _sampled_grid_inline(phis, us, dtype, order)
            assert x.dtype == x_ref.dtype and wf.dtype == wf_ref.dtype
            assert np.array_equal(x, x_ref) and np.array_equal(wf, wf_ref), phis[0].label


def test_geometry_is_cached_outside_the_fields():
    bat = standard_battery()
    signed = derivative(TestFunction.bspline(3, 1.0, 2.0), 1)
    for phi in (bat[7], slash_W(bat[7], -4.0, 4), shift_s(slash_W(bat[2], 1.5, 4), 2.0), signed):
        copy = replace(phi)
        assert copy == phi and not {"_geometry", "_edges"} & set(vars(copy))
        support, knots, edges = phi.support(), phi.knots(), _graded_edges(phi, 13)
        # computed once: the same objects come back
        assert phi.support() is support and phi.knots() is knots and _graded_edges(phi, 13) is edges
        # a fresh computation agrees, and the cache is not in ==, hash or repr
        assert (copy.support(), copy.knots(), _graded_edges(copy, 13)) == (support, knots, edges)
        assert {"_geometry", "_edges"} <= set(vars(phi))
        fresh = replace(phi)
        assert fresh == phi and hash(fresh) == hash(phi) and repr(fresh) == repr(phi)
        assert "_geometry" not in repr(phi)
        # replace starts afresh, also on a changed stack
        moved = replace(phi, ops=phi.ops + (("slash", 1.0, 2),))
        assert not {"_geometry", "_edges"} & set(vars(moved))
        assert moved.support() != support


def test_derived_test_functions_are_kept_once_per_parent():
    bat = standard_battery()
    for phi in (bat[7], slash_W(bat[2], 1.5, 4), derivative(TestFunction.bspline(3, 1.0, 2.0), 1)):
        for derive in (lambda p: slash_W(p, -10.0, 1), lambda p: shift_s(p, 2.0),
                       lambda p: shift_s(p, 1.5 + 2.0j), lambda p: shift_s(slash_W(p, 0.5, 4), 3.0)):
            once = derive(phi)
            assert derive(phi) is once  # the same instance, and its caches, again
            # equal to one derived afresh, in ==, hash, repr and label
            fresh = derive(replace(phi))
            assert fresh is not once
            assert fresh == once and hash(fresh) == hash(once) and repr(fresh) == repr(once)
        # replace starts without the derived ones, also on a changed stack
        assert "_derived" in vars(phi)
        assert "_derived" not in vars(replace(phi))
        assert "_derived" not in vars(replace(phi, ops=phi.ops + (("slash", 1.0, 2),)))
    # equal arguments that label differently stay apart
    assert shift_s(bat[3], 0.0).label != shift_s(bat[3], -0.0).label
    assert slash_W(bat[3], 1, 4).label == slash_W(bat[3], 1.0, 4).label
    assert slash_W(bat[3], 1, 4) is slash_W(bat[3], 1.0, 4)


def test_derived_test_functions_are_bounded_per_parent():
    # shifts by arbitrary s (the s-family) keep at most _DERIVED of them, the
    # latest, dropping the oldest
    phi = replace(standard_battery()[4])
    first = shift_s(phi, 2.0)
    for s in np.linspace(0.5, 3.5, 10_000):
        shift_s(phi, s)
        assert len(phi._derived) <= _DERIVED
    assert len(phi._derived) == _DERIVED
    kept = list(phi._derived.values())
    assert kept[-1].label == shift_s(phi, 3.5).label and shift_s(phi, 3.5) is kept[-1]
    assert all(p is not first for p in kept)
    assert shift_s(phi, 2.0) == first and shift_s(phi, 2.0) is not first


@pytest.mark.parametrize("j", range(10))
def test_graded_seed_quadrature_against_mpmath(j):
    # int phi_j(y) e^{-u y} dy at u = 2 pi, 20 pi (bump 9: about 3e-159 at
    # 20 pi) and int phi_j(y) y^{5/2} dy, to 30 digits
    mp = pytest.importorskip("mpmath")
    phi = standard_battery()[j]
    c1, c2 = phi.support()
    knots = _graded_edges(phi, _SEED_LEVELS)
    with mp.workdps(30):
        a, b = mp.mpf(c1), mp.mpf(c2)
        bump = lambda y: mp.exp(4 / (b - a) ** 2 - 1 / ((y - a) * (b - y)))
        cuts = [a, a + (b - a) / 16, a + (b - a) / 4, (a + b) / 2, b - (b - a) / 4,
                b - (b - a) / 16, b]
        cases = [(lambda ys: ys ** 2.5, mp.quad(lambda y: bump(y) * y ** mp.mpf(2.5), cuts))]
        for u in (2 * math.pi, 20 * math.pi):
            # mpmath stops on an absolute error: integrate e^{-u (y - c1)}, of
            # order 1, and scale back by e^{-u c1} exactly
            scaled = mp.quad(lambda y: bump(y) * mp.exp(-u * (y - a)), cuts)
            cases.append((lambda ys, u=u: np.exp(-u * ys), mp.exp(-u * a) * scaled))
        for g, ref in cases:
            v, err = quadrature(lambda ys: phi.eval_many(ys) * g(ys), c1, c2,
                                rel_tol=1e-13, knots=knots, vectorized=True)
            ref = float(ref)
            assert abs(v - ref) <= 1e-13 * abs(ref) + err, (j, ref)


# ---------------------------------------------------------------------------
# battery


def test_battery_geometry():
    bat = standard_battery()
    assert len(bat) == 10
    assert bat[0].support() == (0.25, 0.5)
    lo9, hi9 = bat[9].support()
    assert abs(lo9 - 2 ** 2.5) < 1e-12 and abs(hi9 - 2 ** 3.5) < 1e-12


def test_battery_covers_range():
    # for any y in the tested range some member is nonzero there
    bat = standard_battery()
    for y in np.linspace(0.26, 11.0, 300):
        assert any(abs(eval_at(phi, float(y))) > 0 for phi in bat)


def test_battery_shifts():
    bat = standard_battery(shifts=(1, 2, 6))
    assert len(bat) == 30
