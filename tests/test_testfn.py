"""Test-function algebra, quadrature engine, Laplace transforms."""

import math

import numpy as np
import pytest

from maass_lseries.errors import AccuracyError, DomainError
from maass_lseries.lseries import _tau_route, _tau_rule, _tau_tail
from maass_lseries.testfn import (
    _LOG_TINY,
    TestFunction,
    _columns,
    _exp_normal,
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
    x, wf = _sampled_grid(phis, us, np.float64)
    E = _exp_normal(np.multiply.outer(-us, x))
    return _full_split(E @ _full_columns(x, wf), us, wf, _TINY)


def _lattice_3m(phis, ns, step):
    x, wf = _sampled_grid(phis, ns * step, np.float64)
    n0, n1 = int(ns.min()), int(ns.max())
    B = math.isqrt(n1 - n0) + 1
    Q = (n1 - n0) // B + 1
    baby = _exp_normal(np.multiply.outer(np.arange(B) * -step, x))
    giant = _exp_normal(np.multiply.outer(x, (n0 + B * np.arange(Q)) * -step))
    folded = np.einsum("jq,jc->jqc", giant, _full_columns(x, wf)).reshape(len(x), -1)
    parts = folded.view(np.float64)
    parts[np.abs(parts) < _TINY] = 0.0
    table = (baby @ parts).view(folded.dtype).reshape(B, Q, -1)
    return _full_split(table[(ns - n0) % B, (ns - n0) // B], ns * step, wf, _TINY)


def _tau_route_3m(x, samples, lam, c1, p, rule):
    """``lseries._tau_route`` with every column of the product written out."""
    tau, wk, wg, T = rule
    ncol = samples.shape[1] * len(lam)
    cols = _exp_normal(np.multiply.outer(x, -lam))[:, None, :] * samples[:, :, None]
    cols = cols.reshape(len(x), ncol)
    cols[np.abs(cols) < _TINY] = 0.0
    table = _full_columns(x, cols)
    lam_c = np.tile(lam, samples.shape[1])
    s_c = 2.0 * c1 * lam_c
    lost = np.repeat(samples, len(lam), axis=1)
    acc, err, kg = np.zeros(ncol, dtype=cols.dtype), np.zeros(ncol), np.zeros(ncol)
    for i in range(0, len(tau), 15):
        tc = tau[i:i + 15]
        B = _exp_normal(np.multiply.outer(tc, -x / c1))
        vals, errs = _full_split(B @ table, lam_c[:, None] + tc / c1, lost, _TINY)
        power = (1.0 + tc / s_c[:, None]) ** p
        vals = vals * power
        acc += vals @ wk[i:i + 15]
        err += (errs * power) @ wk[i:i + 15]
        kg += np.abs(vals @ (wk - wg)[i:i + 15])
    mass = np.sum(np.abs(cols), axis=0) + _TINY * np.sum(np.abs(lost), axis=0)
    return acc / s_c, (kg + err + mass * _tau_tail(T, s_c, p)) / s_c


def _column_cases():
    bat = standard_battery()
    signed = derivative(TestFunction.bspline(3, 1.0, 2.0), 1)  # negative pieces
    for phi in (bat[0], bat[5], slash_W(bat[7], -10.0, 1), shift_s(bat[3], 0.5), signed):
        yield (phi,)
        yield (phi, shift_s(phi, 2.0))
    yield (shift_s(bat[4], 1.5 + 2.0j),)  # complex samples


def _assert_same(got, want, value_tol, slack=0.0):
    """Values within ``value_tol`` and errors within 1e-12 of theirs, plus
    ``slack`` of the values."""
    (v, e), (v3, e3) = got, want
    assert np.all(np.abs(v - v3) <= value_tol)
    assert np.all(np.abs(e - e3) <= 1e-12 * e3 + slack * np.abs(v3))


def test_columns_keep_one_copy_of_each_column():
    bat = standard_battery()
    phi = bat[6]
    x, wf = _sampled_grid((phi, shift_s(phi, 2.0)), np.array([100.0]), np.float64)
    assert np.array_equal(wf[:, 1], x * wf[:, 0])  # phi x is sampled as x times phi
    cols, idx = _columns(x, wf)
    assert cols.shape[1] == 3 and list(idx) == [0, 1, 0, 1, 1, 2]
    full = _full_columns(x, wf)
    assert np.array_equal(cols[:, idx], full)
    for signed in (-wf, wf * (1 + 1j)):
        cols, idx = _columns(x, signed)
        assert np.array_equal(cols, _full_columns(x, signed)) and list(idx) == list(range(6))


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


@pytest.mark.parametrize("k", [12.0, 0.5])
def test_tau_route_on_distinct_columns_matches_the_full_product(k):
    lam = 2 * math.pi * np.arange(1, 6) / 4
    bat = standard_battery()
    signed = derivative(TestFunction.bspline(3, 1.0, 2.0), 1)
    for phi in (bat[2], slash_W(bat[8], -10.0, 1), signed):
        lo, hi = phi.support()
        rule = _tau_rule(2.0 * lam * lo, -k, hi / lo)
        phis = (phi, shift_s(phi, 2.0 - k), shift_s(phi, 3.0 - k))
        x, wf = _sampled_grid(phis, np.array([np.max(lam) + rule[-1] / lo]), np.float64)
        for samples in (wf[:, 1:], wf[:, 1:2]):
            want = _tau_route_3m(x, samples, lam, lo, -k, rule)
            # the estimate's |Kronrod - Gauss| part is a difference of two
            # near-equal sums, so it moves with the values' last bits (by up
            # to 1e-16 of the value here)
            _assert_same(_tau_route(x, samples, lam, lo, -k, rule), want,
                         1e-15 * np.abs(want[0]), slack=1e-15)


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
