"""Functional-equation residuals, sweeps, lift identities, summation terms."""

import gc
import math
import sys
import weakref
from dataclasses import replace
from functools import _lru_cache_wrapper

import numpy as np
import pytest

from maass_lseries import testfn
from maass_lseries import verify as verify_module
from maass_lseries.errors import AccuracyError, DomainError, MembershipError
from maass_lseries.form import FormData, twist
from maass_lseries.lseries import (
    LValue,
    _series_pair,
    _twisted,
    lseries_delta,
    lseries_series,
    series_membership,
)
from maass_lseries.qseries import fixture, fixture_pair
from maass_lseries.specials import (
    bessel_J_grid,
    characters_mod,
    kronecker_character,
    trivial_character,
)
from maass_lseries.testfn import TestFunction, slash_W, standard_battery
from maass_lseries.verify import (
    FEReport,
    IdentityReport,
    SummationReport,
    _bessel_nodes,
    _fe_side,
    _gf_moments,
    _whittaker_side,
    alpha_identity_check,
    converse_sweep,
    decomp_identity_check,
    derivative_lift,
    fe_pair,
    fe_residual_half,
    fe_residual_int,
    fe_sweep,
    gf_term_check,
    mf_term_check,
    summation_residual,
    sweep_instances,
)

BAT = standard_battery()
CHI1 = trivial_character(1)


def test_fe_delta_and_companion():
    f, g = fixture_pair("delta", 256)
    for phi in BAT:
        rep, rep_d = fe_residual_int(f, g, CHI1, phi)
        assert rep.rel_residual < 1e-8, phi.label
        assert rep_d.rel_residual < 1e-8, phi.label
        assert rep.passed and rep_d.passed
        assert abs(rep.prefactor - 1.0) < 1e-15  # i^12 N^{1-6} = 1


def test_fe_inv_delta():
    f, g = fixture_pair("inv_delta", 768)
    for phi in BAT:
        rep, rep_d = fe_residual_int(f, g, CHI1, phi)
        assert rep.rel_residual < 1e-8
        assert rep_d.rel_residual < 1e-8


def test_fe_nonmodular_negative_control():
    f = FormData(
        weight2=24, level=1, psi=CHI1, n0=0,
        a={1: 1.0}, b={}, growth_C=4.0, exhaustive=True,
    )
    worst = max(fe_residual_int(f, f, CHI1, phi)[0].rel_residual for phi in BAT)
    assert worst > 1e-3


def test_fe_j744_perturbation_detected():
    f, _ = fixture_pair("j744", 768)
    a = dict(f.a)
    a[1] = a[1] * (1 + 1e-3)
    fp = replace(f, a=a)
    worst = max(fe_residual_int(fp, fp, CHI1, phi)[0].rel_residual for phi in BAT)
    assert worst > 1e-4


def test_fe_half_integral_theta():
    f, g = fixture_pair("theta", 768)
    for phi in BAT:
        rep, rep_d = fe_residual_half(f, g, CHI1, phi)
        assert rep.rel_residual < 1e-6
        assert rep_d.rel_residual < 1e-6
        assert abs(rep.prefactor - 2 ** 1.5) < 1e-12  # 4^{1-1/4}
        assert abs(rep_d.prefactor + 2 ** 1.5) < 1e-12


def test_fe_half_integral_twisted():
    f, g = fixture_pair("theta", 768)
    for D in (3, 5):
        for chi in characters_mod(D):
            rep, rep_d = fe_residual_half(f, g, chi, BAT[4])
            assert rep.rel_residual < 1e-6, (D, chi.index)
            assert rep_d.rel_residual < 1e-6, (D, chi.index)


def test_fe_half_domain_errors():
    f, g = fixture_pair("theta", 64)
    with pytest.raises(DomainError):
        fe_residual_half(f, g, characters_mod(2)[0], BAT[0])  # even D
    d, _ = fixture_pair("delta", 64)
    with pytest.raises(DomainError):
        fe_residual_half(d, d, CHI1, BAT[0])  # integral weight


def test_fe_pair_needs_f_and_g_of_one_weight_parity():
    delta, _ = fixture_pair("delta", 64)
    theta, _ = fixture_pair("theta", 64)
    for f, g in ((delta, theta), (theta, delta)):
        with pytest.raises(DomainError, match="parity"):
            fe_pair(f, g, CHI1, BAT[0])


def test_fe_membership_error_names_side():
    f, g = fixture_pair("delta", 64)
    tp = TestFunction.trunc_power(2.0, 1.0)
    with pytest.raises(MembershipError) as exc:
        fe_residual_int(f, g, CHI1, tp)
    assert "left side" in str(exc.value)
    # raised afresh, not chained: the failed evaluation is not kept alive
    assert exc.value.__context__ is None and exc.value.__cause__ is None


def test_fe_pair_certifies_the_right_side_before_any_transform(monkeypatch):
    """theta@768 at D = 7 cannot certify the right side of bump 9: the
    instance raises before either side builds a transform."""
    from maass_lseries import lseries as lseries_module

    calls = []
    for name in ("laplace_lattice", "laplace_many"):
        real = getattr(lseries_module, name)
        monkeypatch.setattr(lseries_module, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    f, g = fixture_pair("theta", 768)
    for chi in characters_mod(7):
        with pytest.raises(MembershipError) as exc:
            fe_pair(f, g, chi, BAT[9])
        assert exc.value.side == "right" and str(exc.value).startswith("right side: ")
    assert calls == []
    fe_pair(f, g, characters_mod(7)[0], BAT[0])
    assert "laplace_lattice" in calls


def test_fe_side_raises_where_membership_fails_on_theta():
    """A side raises MembershipError exactly where ``series_membership``
    rejects its twisted form: on theta@768 at D < 16 that is the right side
    of the outer bumps from D = 7 on, for every character mod D."""
    def failure(call):
        try:
            call()
        except MembershipError as exc:
            return str(exc)
        return None

    f, g = fixture_pair("theta", 768)
    raised = set()
    for D in range(1, 16, 2):
        for chi in characters_mod(D):
            chi_right = chi.conjugate() * kronecker_character(D)
            for j, phi in enumerate(BAT):
                assert failure(lambda: _fe_side(_twisted(f, chi), phi, "left")) is None
                phi_w = slash_W(phi, 1.5, 4)
                side = failure(lambda: _fe_side(_twisted(g, chi_right), phi_w, "right"))
                bound = failure(lambda: series_membership(twist(g, chi_right), phi_w, True))
                assert (side is None) == (bound is None), (D, chi.index, j)
                if side is not None:
                    assert side == f"right side: {bound}"
                    raised.add((D, j))
    assert raised == {(7, 9), (9, 8), (9, 9), (11, 8), (11, 9)} | {
        (D, j) for D in (13, 15) for j in (7, 8, 9)
    }


def test_converse_sweep_delta_consistent():
    f, g = fixture_pair("delta", 256)
    rep = converse_sweep(f, g, BAT)
    assert rep.consistent
    assert rep.verdict == "consistent-with-modular"
    assert rep.n_checked == 20  # D = 1 only at level 1, both equations
    assert rep.worst.rel_residual < 1e-8


def test_converse_sweep_inv_delta_consistent():
    f, g = fixture_pair("inv_delta", 768)
    rep = converse_sweep(f, g, BAT)
    assert rep.consistent


def test_converse_sweep_perturbation_witness():
    f, _ = fixture_pair("delta", 256)
    a = dict(f.a)
    a[2] = a[2] * (1 + 1e-3)
    fp = replace(f, a=a)
    rep = converse_sweep(fp, fp, BAT)
    assert not rep.consistent
    assert rep.failures
    assert rep.worst.rel_residual > 1e-4
    assert rep.worst.phi_id  # concrete witness carries its test function


def test_converse_sweep_monotone_in_battery():
    f, _ = fixture_pair("delta", 256)
    a = dict(f.a)
    a[2] = a[2] * (1 + 1e-3)
    fp = replace(f, a=a)
    small = converse_sweep(fp, fp, BAT[:4])
    full = converse_sweep(fp, fp, BAT)
    # adding members can only add failures, never remove them
    small_keys = {(r.chi_id, r.phi_id, r.equation) for r in small.failures}
    full_keys = {(r.chi_id, r.phi_id, r.equation) for r in full.failures}
    assert small_keys <= full_keys
    if not small.consistent:
        assert not full.consistent


def test_converse_sweep_primitive_mode():
    f, g = fixture_pair("delta", 256)
    rep = converse_sweep(f, g, BAT[:3], primitive_only=True, dmax=5)
    assert rep.consistent
    # D in {1,3,4,5} coprime to 1 with primitive characters only:
    # phi(1)=1, D=2 trivial not primitive, D=3: 1, D=4: 1, D=5: 3
    assert rep.n_checked == (1 + 1 + 1 + 3) * 3 * 2
    # the modulus cap is 20 by default, and dmax moves it either way
    for dmax, top in ((None, 20), (25, 25)):
        rep = converse_sweep(f, g, BAT[3:4], primitive_only=True, dmax=dmax)
        primitive = sum(chi.is_primitive for D in range(1, top + 1) for chi in characters_mod(D))
        assert rep.consistent and rep.n_checked == 2 * primitive
        assert max(int(r.chi_id.split(".")[0]) for r in rep.reports) == top


def test_twisted_fe_delta_mod3_mod5():
    f, g = fixture_pair("delta", 768)
    for D in (3, 5):
        for chi in characters_mod(D):
            for phi in (BAT[0], BAT[4], BAT[9]):
                rep, rep_d = fe_residual_int(f, g, chi, phi, tol=1e-7)
                assert rep.rel_residual < 1e-7, (D, chi.index, phi.label)
                assert rep_d.rel_residual < 1e-7


def test_twisted_fe_j744_error_accounting():
    # j744's coefficients grow like e^{4 pi sqrt n}, and twisting by a
    # modulus-3 character slows the Laplace decay threefold.  The twisted
    # series then sweeps through terms ~e^{75} that cancel to O(e^{10}):
    # no floating precision reaches that, and the report must say so
    # (error_dominated) instead of producing a silent garbage verdict.
    # The outermost member cannot even certify membership at 768 stored
    # coefficients and refuses outright.
    f, g = fixture_pair("j744", 768)
    chi = characters_mod(3)[0]
    reliable = unreliable = 0
    for phi in BAT[:6]:
        rep, _ = fe_residual_int(f, g, chi, phi, tol=1e-7)
        if rep.verdict_reliable:
            reliable += 1
            assert rep.rel_residual < 1e-7, (phi.label, rep.rel_residual)
        else:
            unreliable += 1
    assert reliable >= 2 and unreliable >= 3
    with pytest.raises(MembershipError) as exc:
        fe_residual_int(f, g, characters_mod(3)[1], BAT[9])
    assert "right side" in str(exc.value)


def test_wrong_sign_discrimination():
    # with +i^k instead of -i^k the companion equation must fail loudly
    f, g = fixture_pair("delta", 256)
    from maass_lseries.lseries import lseries_twisted

    worst = 0.0
    for phi in BAT:
        lhs = lseries_twisted(f, CHI1, phi, delta=True).value
        rhs = lseries_twisted(g, CHI1, slash_W(phi, -10.0, 1), delta=True).value
        wrong = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)  # +1 prefactor
        worst = max(worst, wrong)
    assert worst > 1e-2


# ---------------------------------------------------------------------------
# derivative lift


def test_derivative_lift_coefficients():
    f = fixture("inv_delta", 64)
    lift = derivative_lift(f)
    assert lift.weight2 == 28  # weight 2 - k = -12 means k = 14
    assert abs(lift.a[-1] - (-2 * math.pi) ** 13) < 1e-3
    assert 0 not in lift.a  # constant term annihilated
    z = FormData(weight2=-24, level=1, psi=CHI1, n0=0, a={}, b={}, growth_C=4.0)
    assert len(derivative_lift(z).a) == 0


def test_derivative_lift_domain_errors():
    th = fixture("theta", 32)
    with pytest.raises(DomainError):
        derivative_lift(th)  # half-integral
    d = fixture("delta", 32)
    with pytest.raises(DomainError):
        derivative_lift(d)  # k = 2 - 12 < 2


def test_derivative_lift_sweep():
    f = fixture("inv_delta", 1280)
    lift = derivative_lift(f)
    rep = converse_sweep(lift, lift, BAT, tol=1e-7)
    assert rep.consistent
    assert rep.worst.rel_residual < 1e-7


ALPHA_PHIS = {
    "bump": TestFunction.bump(1, 2),
    "bspline": TestFunction.bspline(11, 1, 3),
    "bspline7": TestFunction.bspline(7, 0.5, 2.5),
    "bump_wide": TestFunction.bump(0.3, 1.7),
}


@pytest.mark.parametrize(
    "k,phi_kind",
    [(2, "bump"), (4, "bump"), (12, "bspline"), (6, "bspline7"), (4, "bump_wide")],
)
def test_alpha_identities(k, phi_kind):
    rep_i, rep_ii = alpha_identity_check(ALPHA_PHIS[phi_kind], k, tol=1e-9)
    assert rep_i.passed and rep_i.rel_residual < 1e-9
    assert rep_ii.passed and rep_ii.rel_residual < 1e-9


def test_alpha_transfer_single_coefficient():
    # f with one coefficient: both sides are one Laplace value,
    # (2 pi)^{k-1} (L phi)(2 pi) against (L phi^{(k-1)})(2 pi)
    k = 4
    f = FormData(
        weight2=2 * (2 - k), level=1, psi=CHI1, n0=0,
        a={1: 1.0}, b={}, growth_C=4.0, exhaustive=True,
    )
    rep_i, _ = alpha_identity_check(TestFunction.bump(1, 2), k, tol=1e-9, f=f)
    assert rep_i.passed
    from maass_lseries.testfn import laplace

    expect = (2 * math.pi) ** (k - 1) * laplace(TestFunction.bump(1, 2), 2 * math.pi)
    assert abs(rep_i.lhs - expect) < 1e-12 * abs(expect)


def test_alpha_low_degree_spline_vanishes():
    # degree < k-1: the (k-1)-th derivative kills the piece, so the
    # pointwise involution identity holds with both sides identically zero
    sp = TestFunction.spline([1.0, 2.0], [[0.0, 1.0]])
    _, rep_ii = alpha_identity_check(sp, 4, tol=1e-9)
    assert rep_ii.abs_residual == 0.0


def test_alpha_rejects_modified_input():
    with pytest.raises(DomainError):
        alpha_identity_check(slash_W(TestFunction.bump(1, 2), 1.0, 1), 4)
    with pytest.raises(DomainError):
        alpha_identity_check(TestFunction.bump(1, 2), 3)  # odd k


# ---------------------------------------------------------------------------
# summation-formula blocks


def test_gf_term_identity():
    phi = TestFunction.bump(1, 2)
    for k in (2, 4, 12):
        for n in range(1, 6):
            rep = gf_term_check(n, k, phi, tol=1e-10)
            assert rep.passed, (n, k, rep.rel_residual)


def test_gf_term_k2_reduces_to_plain_laplace():
    # Gamma(1, x) = e^{-x}: both sides collapse to (4 pi n)^{-1} (L phi)(2 pi n)
    from maass_lseries.testfn import laplace

    phi = TestFunction.bump(1, 2)
    rep = gf_term_check(3, 2, phi)
    expect = (4 * math.pi * 3) ** -1 * laplace(phi, 2 * math.pi * 3)
    assert abs(rep.lhs - expect) < 1e-12 * abs(expect)
    assert abs(rep.rhs - expect) < 1e-12 * abs(expect)


def test_mf_term_identity():
    phi = TestFunction.bump(1, 2)
    for k in (2, 4, 12):
        for n in range(1, 6):
            rep = mf_term_check(n, k, 1, phi, tol=1e-6)
            assert rep.passed, (n, k, rep.rel_residual)
            assert rep.rel_residual < 1e-6


# the (n, k) pairs of the benchmark's harmonic_kernels workload
KERNEL_PAIRS = [(n, k) for k in (2, 4, 12) for n in range(1, 6)]


def test_term_residuals_stay_far_below_their_tolerances():
    # measured worst residuals: gf 7.4e-16, mf 1.8e-14 (tolerances 1e-10 and 1e-6)
    phi = TestFunction.bump(1, 2)
    for n, k in KERNEL_PAIRS:
        assert gf_term_check(n, k, phi).rel_residual <= 1e-13, (n, k)
        assert mf_term_check(n, k, 1, phi).rel_residual <= 1e-11, (n, k)


def test_adaptive_sides_settle_in_few_passes(monkeypatch):
    # one integrand call per pass of the adaptive quadrature; seeded with
    # phi's graded edges each side takes 1 to 3, from one panel 6 or 7.
    # Both sides of the gf and of the mf check are adaptive, and so is the
    # shadow pairing of the decomposition: 61 quadratures
    passes = []
    quadrature = verify_module.quadrature

    def counted(f, *args, **kwargs):
        passes.append(0)
        i = len(passes) - 1

        def each_pass(ys):
            passes[i] += 1
            return f(ys)

        return quadrature(each_pass, *args, **kwargs)

    monkeypatch.setattr(verify_module, "quadrature", counted)
    phi = TestFunction.bump(1, 2)
    checks = [lambda n=n, k=k: gf_term_check(n, k, phi) for n, k in KERNEL_PAIRS]
    checks += [lambda n=n, k=k: mf_term_check(n, k, 1, phi) for n, k in KERNEL_PAIRS]
    tau = fixture("delta", 13).a
    a_f = {n: tau[n] for n in range(1, 13)}
    k = 12
    g = FormData(
        weight2=2 * (2 - k), level=1, psi=CHI1, n0=1,
        a={-1: 1.0, 0: 2.0, 1: 5.0, 2: -1.0},
        b={-n: -np.conj(v) * (4 * math.pi * n) ** (1 - k) for n, v in a_f.items()},
        growth_C=8.0, exhaustive=True,
    )
    checks.append(lambda: decomp_identity_check(g, a_f, phi))
    for check in checks:
        assert check().passed
    assert len(passes) == 4 * len(KERNEL_PAIRS) + 1
    assert all(1 <= p <= 3 for p in passes), passes


def test_mf_term_normalization_pinned():
    # an alternative Whittaker normalization carrying an extra
    # (8 pi n)^{-1/2} would miss the Bessel kernel by exactly that factor
    phi = TestFunction.bump(1, 2)
    rep = mf_term_check(1, 2, 1, phi)
    alt_rhs = rep.rhs / math.sqrt(8 * math.pi)
    assert abs(rep.lhs - alt_rhs) / abs(rep.lhs) > 0.5


def test_mf_term_n_scaling():
    phi = TestFunction.bump(1, 2)
    r1 = mf_term_check(2, 4, 1, phi)
    r4 = mf_term_check(2, 4, 4, phi)
    assert abs(r1.lhs / r4.lhs - 4.0) < 1e-9
    assert abs(r1.rhs / r4.rhs - 4.0) < 1e-12


def test_decomp_identity_synthetic_shadow_pair():
    k = 12
    a_f = {1: 2.0 + 1.0j, 2: -3.0 + 0.5j, 3: 0.25 - 0.125j}
    b = {-n: -np.conj(v) * (4 * math.pi * n) ** (1 - k) for n, v in a_f.items()}
    g = FormData(
        weight2=2 * (2 - k), level=1, psi=CHI1, n0=1,
        a={-1: 1.0, 0: 2.0, 1: 5.0, 2: -1.0}, b=b,
        growth_C=8.0, exhaustive=True,
    )
    for phi in (TestFunction.bump(1, 2), BAT[3]):
        rep = decomp_identity_check(g, a_f, phi, tol=1e-9)
        assert rep.passed and rep.rel_residual < 1e-9


def test_summation_fe_reduction_weakly_holomorphic():
    # f = 0 and g = 1/delta: the right side vanishes and the left side is
    # the functional-equation residual of g itself
    g = fixture("inv_delta", 1280)
    f0 = FormData(weight2=28, level=1, psi=CHI1, n0=0, a={}, b={}, growth_C=4.0,
                  exhaustive=True)
    phi = TestFunction.bump(1, 2)
    rep = summation_residual(f0, dict(g.a), dict(g.a), phi)
    assert rep.rhs == 0
    scale = max(abs(rep.lhs_parts[0]), abs(rep.lhs_parts[1]))
    assert abs(rep.lhs) < 1e-8 * scale


def test_summation_term_assembly():
    # each n-summand of the right side is conj(a_f(n)) (gf + whittaker)
    f = FormData(
        weight2=24, level=1, psi=CHI1, n0=0,
        a={1: 1.0 + 0.5j, 2: -2.0}, b={}, growth_C=4.0, exhaustive=True,
    )
    phi = TestFunction.bump(1, 2)
    rep = summation_residual(f, {}, {}, phi)
    manual = 0j
    for n, av in sorted(f.a.items()):
        gf = gf_term_check(n, 12, phi)
        mf = mf_term_check(n, 12, 1, phi)
        manual += np.conj(av) * (gf.rhs + mf.rhs)
    assert abs(rep.rhs - manual) < 1e-10 * abs(manual)
    assert rep.rhs_n_terms == 2


KERNEL_PHIS = (TestFunction.bump(1, 2), BAT[0], BAT[9])


def _mp_integral(phi, g, cuts, dps):
    """int phi(y) g(y) dy over phi's support by mpmath, in ``cuts`` equal
    pieces.  mpmath's quadrature stops on an absolute error, so g must keep
    the integral of order 1 or more."""
    mp = pytest.importorskip("mpmath")
    c1, c2 = phi.base.c1, phi.base.c2
    w = c2 - c1
    with mp.workdps(dps):
        bump = lambda y: mp.exp(4 / mp.mpf(w) ** 2 - 1 / ((y - c1) * (c2 - y)))
        return mp.quad(lambda y: bump(y) * g(y), [c1 + w * j / cuts for j in range(cuts + 1)])


@pytest.mark.parametrize("phi", KERNEL_PHIS, ids=lambda p: p.label)
def test_whittaker_side_against_mpmath(phi):
    mp = pytest.importorskip("mpmath")
    for k, n in ((4, 1), (12, 2)):
        mu = mp.mpf(k - 1) / 2

        def g(y):
            z = 2 * mp.pi * n * y
            kern = sum(2 ** (l + 1) * mp.whitm(1 - mp.mpf(k) / 2 + l, mu, z) for l in range(k - 1))
            return y ** (mp.mpf(k) / 2 - 1) * mp.exp(-mp.pi * n * y) * kern

        ref = float(_mp_integral(phi, g, 2, 16) * (8 * mp.pi * n) ** (-mp.mpf(k) / 2) / (k - 1))
        got, est = _whittaker_side(phi, k, n)
        assert est < 1e-12 * abs(ref), (k, n)
        assert abs(got - ref) <= est, (k, n, abs(got - ref), est)


@pytest.mark.parametrize("phi", KERNEL_PHIS, ids=lambda p: p.label)
def test_gf_moments_against_mpmath(phi):
    # (4 pi n)^{1-k} e^{-2 pi n c1} int phi(y) e^{-2 pi n (y - c1)} sum_l (k-2)!/l! (4 pi n y)^l dy
    mp = pytest.importorskip("mpmath")
    # each n alone, then all three under complex weights in one quadrature
    ns = [1, 2, 5]
    c1 = phi.base.c1
    weights = np.array([1.0, -0.5 + 2.0j, 3.0])
    for k in (4, 12):
        refs = []
        for n in ns:
            c = 4 * mp.pi * n
            poly = lambda y: sum(mp.factorial(k - 2) / mp.factorial(l) * (c * y) ** l for l in range(k - 1))
            g = lambda y: mp.exp(-2 * mp.pi * n * (y - c1)) * poly(y)
            refs.append(float(_mp_integral(phi, g, 4, 20) * c ** (1 - k) * mp.exp(-2 * mp.pi * n * c1)))
            got = _gf_moments(phi, k, [n], [1.0])
            assert abs(got - refs[-1]) <= 1e-13 * abs(refs[-1]), (k, n, abs(got - refs[-1]) / refs[-1])
        ref = complex(np.dot(weights, refs))
        got = _gf_moments(phi, k, ns, weights)
        assert abs(got - ref) <= 1e-13 * np.dot(np.abs(weights), refs), (k, abs(got - ref))


def _coarse_quadrature(monkeypatch):
    # no subdivision allowed past a seed of phi's endpoints and two graded
    # levels: too coarse for the bump's edges, so no y-quadrature settles
    quadrature = verify_module.quadrature
    monkeypatch.setattr(verify_module, "_SEED_LEVELS", 2)
    monkeypatch.setattr(verify_module, "quadrature", lambda *a, **kw: quadrature(*a, **kw, max_subdiv=0))


def test_grid_check_fires_on_a_coarse_grid(monkeypatch):
    # the gf moments, summed under their weights, and the gamma moment of the
    # decomposition raise instead of returning an unsettled first pass
    phi = TestFunction.bump(1, 2)
    _coarse_quadrature(monkeypatch)
    with pytest.raises(AccuracyError):
        _gf_moments(phi, 12, [1, 2], [1.0, 1.0])
    with pytest.raises(AccuracyError):
        verify_module._gamma_moment(phi, 12, [4 * math.pi], [1.0])


def test_adaptive_sides_raise_where_the_quadrature_cannot_settle(monkeypatch):
    # neither y-quadrature of the mf check settles on the coarse seed: each
    # side raises instead of returning its first pass
    phi = TestFunction.bump(1, 2)
    _coarse_quadrature(monkeypatch)
    with pytest.raises(AccuracyError):
        _whittaker_side(phi, 12, 2)
    # the Bessel side comes first and raises before the Whittaker side runs
    monkeypatch.setattr(verify_module, "_whittaker_side", lambda *a: pytest.fail("Bessel side returned"))
    with pytest.raises(AccuracyError):
        mf_term_check(2, 12, 1, phi)


@pytest.mark.parametrize("phi", (TestFunction.bump(1, 2), BAT[0], BAT[5], BAT[9]), ids=lambda p: p.label)
def test_bessel_panels_reach_the_rounding_floor(phi):
    # the k - 1 inner u-integrals of mf_term_check on its 12-point panels
    # against 32 points on the same panels, at y across phi's support, within
    # 1e-13 of their absolute mass (measured 3.2e-14; 10 points reach 1.3e-13);
    # and the whole check's residual on these bumps
    lo, hi = phi.support()
    ys = lo + (hi - lo) * np.linspace(0.0, 1.0, 41)[1:-1]
    for k in (2, 4, 12):
        powers = 2.0 - k + 2 * np.arange(k - 1)
        for n in range(1, 6):
            beta = math.sqrt(8 * math.pi * n)

            def inner(us, ws):
                kern = (ws * bessel_J_grid(k - 1, beta * us))[:, None] * np.power.outer(us, powers)
                gauss = np.exp(-np.outer(1.0 / ys, us ** 2))
                return gauss @ kern, gauss @ np.abs(kern)

            us, ws = _bessel_nodes(n, hi)
            us_ref, ws_ref = _bessel_nodes(n, hi, 32)
            assert len(us) * 32 == len(us_ref) * 12  # 12 points a panel
            (got, _), (ref, mass) = inner(us, ws), inner(us_ref, ws_ref)
            assert np.all(np.abs(got - ref) <= 1e-13 * mass), (k, n, np.max(np.abs(got - ref) / mass))
            assert mf_term_check(n, k, 1, phi).rel_residual <= 1e-11, (k, n)


def test_summation_domain_errors():
    th = fixture("theta", 32)
    with pytest.raises(DomainError):
        summation_residual(th, {}, {}, BAT[0])
    d = FormData(weight2=4, level=1, psi=CHI1, n0=0, a={}, b={}, growth_C=4.0)
    with pytest.raises(DomainError):
        summation_residual(
            FormData(weight2=2, level=1, psi=CHI1, n0=0, a={}, b={}, growth_C=4.0),
            {}, {}, BAT[0],
        )


# ---------------------------------------------------------------------------
# one evaluation per side


def _within_budgets(x, y):
    budget = x.trunc_err + x.quad_err + y.trunc_err + y.quad_err
    return abs(x.value - y.value) <= budget


def _check_side_matches_routes(f, chi, phi):
    plain, dval = _fe_side(_twisted(f, chi), phi, "left")
    fx = twist(f, chi)
    assert _within_budgets(plain, lseries_series(fx, phi)), (chi, phi.label)
    assert _within_budgets(dval, lseries_delta(fx, phi)), (chi, phi.label)
    if chi.modulus == 1:
        # twisting mod 1 is exact, so nothing is charged for it
        ref, ref_d = _series_pair(fx, phi, delta=True)
        assert (plain.quad_err, dval.quad_err) == (ref.quad_err, ref_d.quad_err)
    else:
        # the side's budget also carries the rounding of the twisted coefficients
        assert plain.quad_err >= lseries_series(fx, phi).quad_err


@pytest.mark.parametrize("D", [1, 2, 3, 4, 5])
def test_fe_side_matches_series_and_delta_on_delta(D):
    f, g = fixture_pair("delta", 768)
    for chi in characters_mod(D):
        for j in (0, 5, 9):
            _check_side_matches_routes(f, chi, BAT[j])
            _check_side_matches_routes(g, chi.conjugate(), slash_W(BAT[j], -10.0, 1))


@pytest.mark.parametrize("D", [1, 3, 5])
def test_fe_side_matches_series_and_delta_on_theta(D):
    f, _ = fixture_pair("theta", 768)
    for chi in characters_mod(D):
        for j in (0, 4, 7):
            _check_side_matches_routes(f, chi, BAT[j])
            _check_side_matches_routes(f, chi, slash_W(BAT[j], 1.5, 4))


def test_trivial_twist_charges_no_coefficient_rounding():
    """At D = 1 the Gauss sum is exactly 1: a side's budget is the series
    budget of the untwisted form, escalation included.  Bump 9 of delta's
    right side escalates; its budget is 4e-8 of the value, where a rounding
    charge of 2 eps |a(n)| |(L phi)| made it 2e-6."""
    for name, j in (("delta", 9), ("delta", 4), ("theta", 6)):
        f, g = fixture_pair(name, 768)
        phi = BAT[j]
        phi_w = slash_W(phi, 2.0 - f.weight2 / 2.0, f.level)
        for form, test in ((f, phi), (g, phi_w)):
            side = _fe_side(_twisted(form, CHI1), test, "left")
            ref = _series_pair(form, test, delta=True)
            for got, want in zip(side, ref):
                assert got.value == want.value, (name, test.label)
                assert got.quad_err == want.quad_err, (name, test.label)
                assert got.trunc_err == want.trunc_err, (name, test.label)
    f, g = fixture_pair("delta", 768)
    plain, _ = _fe_side(_twisted(g, CHI1), slash_W(BAT[9], -10.0, 1), "right")
    assert plain.quad_err < 1e-7 * abs(plain.value)


def _transform_calls(monkeypatch):
    """Record (function, dtype) of every transform call from lseries."""
    from maass_lseries import lseries

    calls = []

    def recorder(name, call, dtype_at):
        def recording(*args, **kwargs):
            dtype = args[dtype_at] if len(args) > dtype_at else kwargs.get("dtype", np.float64)
            calls.append((name, np.dtype(dtype)))
            return call(*args, **kwargs)
        return recording

    for name, dtype_at in (("laplace_many", 2), ("laplace_lattice", 3)):
        monkeypatch.setattr(lseries, name, recorder(name, getattr(lseries, name), dtype_at))
    return calls


def test_fe_side_escalates_the_right_side_of_delta(monkeypatch):
    # the escalation's transforms come from the lattice in long double
    f, g = fixture_pair("delta", 768)
    calls = _transform_calls(monkeypatch)
    for j in (8, 9):
        calls.clear()
        phi_w = slash_W(BAT[j], -10.0, 1)
        _fe_side(_twisted(g, CHI1), phi_w, "right")
        assert ("laplace_lattice", np.dtype(np.longdouble)) in calls, BAT[j].label
        assert ("laplace_many", np.dtype(np.longdouble)) not in calls, BAT[j].label
        _check_side_matches_routes(g, CHI1, phi_w)


def test_escalation_is_skipped_where_long_double_is_double(monkeypatch):
    # where np.longdouble is float64 (Windows, Apple-silicon macOS) the
    # escalation would rerun the same precision: with eps_ld patched to
    # float64's, no long-double transform is asked for and the budget is
    # the float64 one
    from maass_lseries import lseries
    from maass_lseries.testfn import laplace_lattice

    _, g = fixture_pair("delta", 768)
    phi_w = slash_W(BAT[9], -10.0, 1)
    ns, coeffs = (a[:60] for a in g._arrays("a"))
    table = laplace_lattice(phi_w, ns, 2 * math.pi)
    terms = coeffs * table[0]
    mass = float(np.sum(np.abs(terms)))
    assert mass > lseries._CANCEL_ESCALATE * abs(np.sum(terms))  # an escalating sum
    calls = _transform_calls(monkeypatch)
    escalated = lseries._weighted_transform_sums([(phi_w, coeffs, ns, table, None)], 1)[0]
    if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        assert ("laplace_lattice", np.dtype(np.longdouble)) in calls
    calls.clear()
    monkeypatch.setattr(lseries, "_EPS_LD", float(np.finfo(np.float64).eps))
    value, budget = lseries._weighted_transform_sums([(phi_w, coeffs, ns, table, None)], 1)[0]
    assert calls == []
    assert value == complex(np.sum(terms))
    assert budget == float(np.sum(np.abs(coeffs) * table[1])) + 1e-16 * mass
    assert abs(value - escalated[0]) <= budget + escalated[1]


@pytest.mark.parametrize("j", [8, 9])
def test_escalated_right_side_of_delta_against_mpmath(j):
    """delta@768 at D = 1 on slash_W(bump j, -10, 1): the right side cancels
    about ten digits and escalates.  Its plain and delta_k values lie within
    their budgets (rounding and truncation) of the stored series summed in
    mpmath at 30 digits: every n = 1..768, with a(n) = tau(n) as stored,
    each transform a tanh-sinh sum of step 1/32 over phi's support (|t| <=
    3.2, nodes below 1e-40 of the largest weight dropped) and e^{-2 pi n x}
    the n-th power of e^{-2 pi x}.  Steps 1/32 and 1/64 agree to 1.5e-22
    of these values, and 30 and 40 digits to 3e-24."""
    mp = pytest.importorskip("mpmath")
    _, g = fixture_pair("delta", 768)
    plain, dval = _fe_side(_twisted(g, CHI1), slash_W(BAT[j], -10.0, 1), "right")
    ns, coeffs = g._arrays("a")
    assert list(ns) == list(range(1, 769))
    c1, c2 = BAT[j].support()
    with mp.workdps(30):
        h = mp.mpf(1) / 32
        lo, hi = 1 / mp.mpf(c2), 1 / mp.mpf(c1)
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        nodes = []
        for i in range(-102, 103):
            t = mp.pi / 2 * mp.sinh(i * h)
            x = mid + half * mp.tanh(t)
            y = 1 / x
            if c1 < y < c2:  # phi(x) = x^10 bump(1/x)
                bump = mp.exp(4 / mp.mpf(c2 - c1) ** 2 - 1 / ((y - c1) * (c2 - y)))
                nodes.append((x, h * half * mp.pi / 2 * mp.cosh(i * h) / mp.cosh(t) ** 2 * x ** 10 * bump))
        top = max(w for _, w in nodes)
        a = [mp.mpf(float(c.real)) for c in coeffs]
        ref, ref_x = mp.mpf(0), mp.mpf(0)  # sum a(n) (L phi)(2 pi n), sum n a(n) (L phi x)(2 pi n)
        for x, w in nodes:
            if w < mp.mpf(10) ** -40 * top:
                continue
            e, s0, s1 = mp.exp(-2 * mp.pi * x), mp.mpf(0), mp.mpf(0)
            for n in range(768, 0, -1):  # Horner in e^{-2 pi x}
                s0 = (s0 + a[n - 1]) * e
                s1 = (s1 + n * a[n - 1]) * e
            ref += w * s0
            ref_x += w * x * s1
        ref_d = 6 * ref - 2 * mp.pi * ref_x  # (k/2) L - 2 pi sum n a(n) (L phi x), k = 12
        for lv, want in ((plain, ref), (dval, ref_d)):
            assert abs(lv.value - complex(want)) <= lv.quad_err + lv.trunc_err, (j, lv.value, want)


def test_targeted_escalation_matches_a_full_long_double_recompute(monkeypatch):
    """The five escalating sums of the delta sweep (D <= 5) recompute in long
    double only the terms whose float64 bound exceeds eps_ld sum|terms| / n,
    the plain and the delta_k sum of a side on one grid; each still matches
    a full long-double recompute within its precision budget (the
    coefficient rounding left out), which the plain float64 sum misses by
    factors of 2.6 to 22."""
    from maass_lseries import lseries
    from maass_lseries.testfn import laplace_many

    f, g = fixture_pair("delta", 768)
    calls = []
    weighted_sums = lseries._weighted_transform_sums

    def recording(rows, period):
        precision_only = weighted_sums([row[:4] + (None,) for row in rows], period)
        for (phi, coeffs, ns, table, _), result in zip(rows, precision_only):
            calls.append((coeffs, phi, ns, period, table[0], result))
        return weighted_sums(rows, period)

    monkeypatch.setattr(lseries, "_weighted_transform_sums", recording)
    for D, j in ((1, 8), (1, 9), (4, 9)):
        for chi in characters_mod(D):
            fe_pair(f, g, chi, BAT[j])
    escalated = []
    for coeffs, phi, ns, period, lv, (value, budget) in calls:
        terms = coeffs * lv
        if np.sum(np.abs(terms)) <= lseries._CANCEL_ESCALATE * abs(np.sum(terms)):
            continue
        escalated.append(phi.label)
        us = ns.astype(np.longdouble) * (2 * lseries._PI_LD / np.longdouble(period))
        full, _ = laplace_many(phi, us, dtype=np.longdouble)
        ref = complex(np.sum(coeffs.astype(np.clongdouble) * full.astype(np.clongdouble)))
        assert abs(value - ref) <= budget, (phi.label, abs(value - ref), budget)
    assert sorted(escalated) == [
        "bump8.W1(-10)", "bump8.W1(-10).s(2.0)",
        "bump9.W1(-10)", "bump9.W1(-10)", "bump9.W1(-10).s(2.0)",
    ]


def test_a_side_escalates_its_plain_and_delta_k_sums_on_one_grid(monkeypatch):
    # the delta sweep of fe-check --dmax 5 samples 3 long-double grids: the
    # plain and the delta_k sums of the right sides of bumps 8 and 9 at D = 1
    # share theirs, and bump 9 at D = 4 escalates its plain sum alone
    f, g = fixture_pair("delta", 768)
    grids = []
    sample = testfn._sample

    def recording(phis, levels, dtype, *args):
        if np.dtype(dtype) == np.dtype(np.longdouble):
            grids.append(tuple(p.label for p in phis))
        return sample(phis, levels, dtype, *args)

    monkeypatch.setattr(testfn, "_sample", recording)
    for D in range(1, 6):
        for chi in characters_mod(D):
            for phi in BAT:
                fe_pair(f, g, chi, phi)
    if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        assert sorted(grids) == [
            ("bump8.W1(-10)", "bump8.W1(-10).s(2.0)"),
            ("bump9.W1(-10)",),
            ("bump9.W1(-10)", "bump9.W1(-10).s(2.0)"),
        ]


def test_fe_pair_on_a_test_function_with_derived_ones_matches_a_fresh_copy():
    # phi keeps its phi|W_N and phi x (and theirs) from call to call; the
    # reports equal, bit for bit, those of an equal phi that keeps none
    f, g = fixture_pair("delta", 768)
    for phi in (BAT[0], BAT[9]):
        for chi in (CHI1, characters_mod(5)[2]):
            first = fe_pair(f, g, chi, phi)
            assert phi._derived
            fresh = replace(phi)
            assert "_derived" not in vars(fresh)
            assert fe_pair(f, g, chi, phi) == first == fe_pair(f, g, chi, fresh)


def test_fe_side_matches_series_and_delta_with_b_coefficients():
    k = 12
    a_f = {1: 2.0 + 1.0j, 2: -3.0 + 0.5j}
    g = FormData(
        weight2=2 * (2 - k), level=1, psi=CHI1, n0=1,
        a={-1: 1.0, 0: 2.0, 1: 5.0, 2: -1.0},
        b={-n: -complex(v).conjugate() * (4.0 * math.pi * n) ** (1 - k) for n, v in a_f.items()},
        growth_C=8.0, exhaustive=True,
    )
    for chi in characters_mod(3):
        _check_side_matches_routes(g, chi, BAT[2])


def test_vanishing_twist_is_not_a_reliable_failure():
    """theta twisted by the conductor-3 character mod 9 vanishes on both
    sides; the rounding of its twisted coefficients enters the budgets, so
    those failures read as unreliable while every other verdict at D = 9
    keeps its reliability."""
    f, g = fixture_pair("theta", 768)
    failing, reliable = [], 0
    for chi in characters_mod(9):
        for j, phi in enumerate(BAT):
            try:
                reps = fe_residual_half(f, g, chi, phi)
            except MembershipError:
                continue
            failing += [(chi.index, j) for r in reps if not r.passed]
            reliable += sum(r.verdict_reliable for r in reps)
            if chi.conductor == 3:
                assert not any(r.verdict_reliable for r in reps), (chi.index, j)
    assert sorted(set(failing)) == [(3, j) for j in range(8)]
    assert len(failing) == 16
    assert reliable == 51


def test_sweep_instances_enumerates_the_converse_sweep():
    # theta (level 4, half-integral weight) keeps the odd moduli; the
    # converse sweep's reports follow the enumeration one pair per instance
    f, g = fixture_pair("theta", 768)
    inst = list(sweep_instances(f, BAT[:2], range(1, 10)))
    assert sorted({D for D, _, _ in inst}) == [1, 3, 5, 7, 9]
    assert len(inst) == 2 * sum(len(characters_mod(D)) for D in (1, 3, 5, 7, 9))
    rep = converse_sweep(f, g, BAT[:2], dmax=7)
    ids = [(f"{chi.modulus}.{chi.index}", phi.label) for D, chi, phi in inst if D <= 7]
    assert [(r.chi_id, r.phi_id) for r in rep.reports[::2]] == ids
    # delta at level 1: every modulus, and the primitive characters on request
    d, _ = fixture_pair("delta", 64)
    prim = list(sweep_instances(d, BAT[:1], range(1, 8), primitive_only=True))
    assert [D for D, _, _ in prim] == [
        D for D in range(1, 8) for chi in characters_mod(D) if chi.is_primitive
    ]


@pytest.mark.parametrize("name, moduli, n_reports", [
    ("delta", range(1, 6), 200),
    ("theta", range(1, 6, 2), 140),
])
def test_fe_sweep_equals_fe_pair_bit_for_bit(name, moduli, n_reports):
    f, g = fixture_pair(name, 768)
    swept = fe_sweep(f, g, BAT, moduli)
    alone = [(D, chi, phi, fe_pair(f, g, chi, phi))
             for D, chi, phi in sweep_instances(f, BAT, moduli)]
    assert len(swept) == len(alone) and 2 * len(swept) == n_reports
    assert repr(swept) == repr(alone)


def test_fe_sweep_goes_on_past_a_membership_failure():
    # theta's outer bumps cannot be certified from D = 7 on (see above); each
    # such instance is its right side's error, and the sweep goes on
    f, g = fixture_pair("theta", 768)
    swept = fe_sweep(f, g, BAT, range(1, 10))
    errors = [(D, phi.label, res) for D, _, phi, res in swept if isinstance(res, MembershipError)]
    assert len(swept) - len(errors) == 172 and len(errors) == 18
    assert {(D, label) for D, label, _ in errors} == {(7, "bump9"), (9, "bump8"), (9, "bump9")}
    for _, _, exc in errors:
        assert exc.side == "right" and str(exc).startswith("right side: ")
        assert exc.__traceback__ is None  # its frames held the sweep's twists
    with pytest.raises(MembershipError, match="bump9.W4") as first:
        converse_sweep(f, g, BAT, dmax=9)
    assert str(first.value) == str(errors[0][2])  # the first in sweep order


def test_fe_sweep_grid_table_lives_only_for_the_sweep(monkeypatch):
    f, g = fixture_pair("delta", 256)
    sizes = []
    reports = verify_module._TwistedFE.reports

    def recording(self, phi, tol):
        sizes.append(len(testfn._GRIDS.get()))
        if len(sizes) == 5:
            raise RuntimeError("stop")
        return reports(self, phi, tol)

    assert testfn._GRIDS.get() is None
    fe_sweep(f, g, BAT[:3], range(1, 3))
    assert testfn._GRIDS.get() is None
    monkeypatch.setattr(verify_module._TwistedFE, "reports", recording)
    with pytest.raises(RuntimeError, match="stop"):
        fe_sweep(f, g, BAT[:3], range(1, 3))
    assert testfn._GRIDS.get() is None  # unset when an error escapes, too
    # the sweep's own table: empty at its start, then one grid per (phi, depth)
    assert sizes[0] == 0 and 0 < sizes[1] <= sizes[4]


def _module_caches():
    """Every lru cache and container at the top level of the package's modules."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name.startswith("maass_lseries"):
            for attr, value in vars(module).items():
                if isinstance(value, _lru_cache_wrapper):
                    out[f"{name}.{attr}"] = value.cache_info().currsize
                elif isinstance(value, (dict, list, set)):
                    out[f"{name}.{attr}"] = len(value)
    return out


def test_fe_sweep_keeps_no_twist_or_grid_in_a_module_cache(monkeypatch):
    from maass_lseries import lseries

    f, g = fixture_pair("delta", 256)
    fe_sweep(f, g, BAT[:3], range(1, 4))  # warm the caches of characters and battery
    before = _module_caches()
    made = []
    twist_, sample = lseries.twist, testfn._sample

    def twist_recorded(*args):
        out = twist_(*args)
        made.append(weakref.ref(out))
        return out

    def sample_recorded(*args):
        out = sample(*args)
        made.extend(weakref.ref(a) for a in out)
        return out

    monkeypatch.setattr(lseries, "twist", twist_recorded)
    monkeypatch.setattr(testfn, "_sample", sample_recorded)
    # forms equal to f and g but not the same objects: a cache of twists would grow
    swept = fe_sweep(replace(f, label="f2"), replace(g, label="g2"), BAT[:3], range(1, 4))
    assert len(swept) == 12 and len(made) > 8
    gc.collect()
    assert [r for r in made if r() is not None] == []
    assert _module_caches() == before


def test_converse_sweep_with_only_unreliable_failures_is_inconclusive():
    """Up to D = 9 theta fails only on its vanishing conductor-3 twist, whose
    reports are unreliable: the sweep is inconclusive, not failed.  (The
    battery stays short of bumps 8 and 9, whose tails at D = 7 and 9 cannot
    be certified.)"""
    f, g = fixture_pair("theta", 768)
    rep = converse_sweep(f, g, BAT[:3], dmax=9)
    assert rep.verdict == "inconclusive"
    assert not rep.consistent
    assert len(rep.failures) == 6
    assert all(r.chi_id == "9.3" and not r.verdict_reliable for r in rep.failures)
    assert converse_sweep(f, g, BAT[:3], dmax=7).consistent
    # one reliable failure makes the verdict "failed" again
    a = dict(f.a)
    a[1] = a[1] * (1 + 1e-4)
    fp = replace(f, a=a)
    assert converse_sweep(fp, fp, BAT[:3], dmax=9).verdict == "failed"


def test_fe_report_derives_its_residuals():
    rep = FEReport.build(1.0, 1.0 + 1e-9, 1.0, "phi", "1.0", "FE", 1e-8, 1e-12, 1e-12)
    assert rep.abs_residual == pytest.approx(1e-9)
    assert rep.rel_residual == pytest.approx(1e-9 / (1.0 + 1e-9))
    assert rep.passed and rep.verdict_reliable
    assert not hasattr(rep, "__dict__")


def test_result_types_have_slots():
    lv = LValue(1 + 2j, 1e-20, 1e-16, 12, "series")
    rep = IdentityReport.build(1.0, 1.0 + 1e-12, 1e-9, "x")
    srep = SummationReport.build(1.0, 2.0, 1e-9, "s", lhs_parts=(1j, 0j), rhs_n_terms=3)
    for x in (lv, rep, srep):
        assert not hasattr(x, "__dict__")
        assert x == replace(x) and x is not replace(x)
    assert replace(lv, method="integral") == LValue(1 + 2j, 1e-20, 1e-16, 12, "integral")
    assert replace(rep, detail="y") == IdentityReport(rep.lhs, rep.rhs, rep.abs_residual, rep.rel_residual, True, "y")
    moved = replace(srep, rhs_n_terms=4)
    assert (moved.rhs_n_terms, moved.lhs_parts, moved.passed) == (4, (1j, 0j), False)
    assert moved != srep
