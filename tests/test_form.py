"""FormData evaluation, twisting, shadow relation, growth validation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from maass_lseries.errors import (
    DomainError,
    InsufficientDataError,
    SchemaError,
    ShadowVanishesError,
)
from maass_lseries.form import (
    FormData,
    _evaluate,
    delta_k_iy,
    delta_k_point,
    eval_iy,
    eval_point,
    form_from_dict,
    form_to_dict,
    shadow_coeffs,
    twist,
    validate_growth,
)
from maass_lseries.qseries import fixture, fixture_qexp
from maass_lseries.specials import characters_mod, gauss_sum, trivial_character, upper_gamma


def _single(n, val=1.0, weight2=24, level=1, **kw):
    a = {n: val} if n >= 0 else {}
    b = {n: val} if n < 0 else {}
    kw.setdefault("exhaustive", True)
    return FormData(
        weight2=weight2, level=level, psi=trivial_character(level),
        n0=max(0, -n), a=a if n >= 0 else {}, b=b, growth_C=4.0, **kw,
    )


def test_single_positive_term():
    f = _single(1)
    for y in (0.25, 1.0, 3.0):
        assert abs(eval_point(f, 1j * y) - math.exp(-2 * math.pi * y)) < 1e-15


def test_single_nonholomorphic_term():
    # f = b(-1) Gamma(1-k, 4 pi y) e^{2 pi y} at z = iy
    k = -10
    f = FormData(
        weight2=2 * k, level=1, psi=trivial_character(1), n0=0,
        a={}, b={-1: 1.0}, growth_C=4.0, exhaustive=True,
    )
    for y in (0.5, 1.0, 2.0):
        expect = upper_gamma(1 - k, 4 * math.pi * y) * math.exp(2 * math.pi * y)
        assert abs(eval_point(f, 1j * y) - expect) < 1e-12 * abs(expect)


@pytest.mark.parametrize("weight2,level", [(-20, 1), (-1, 4), (1, 4)])
def test_b_terms_over_an_array_match_mpmath(weight2, level):
    # one incomplete-gamma table over ordinates x b-indices, at the integral
    # order 11 and the half-integral orders 1.5 and 0.5; small y keeps some
    # points below the continued fraction's range
    mp = pytest.importorskip("mpmath")
    f = FormData(
        weight2=weight2, level=level, psi=trivial_character(level), n0=0,
        a={}, b={-1: 1.0, -2: -0.5, -3: 0.25j}, growth_C=4.0, exhaustive=True,
    )
    k = f.k
    ys = np.array([0.02, 0.1, 0.35, 1.0, 3.0, 11.0])
    vals, dvals = eval_iy(f, ys), delta_k_iy(f, ys)
    for y, v, dv in zip(ys, vals, dvals):
        with mp.workdps(40):
            ref = ref_d = 0
            for n, c in f.b.items():
                term = c * mp.gammainc(1 - k, -4 * mp.pi * n * y) * mp.exp(-2 * mp.pi * n * y)
                ref += term
                ref_d += term * (mp.mpf(k) / 2 - 2 * mp.pi * n * y)
            ref, ref_d = complex(ref), complex(ref_d)
        assert abs(v - ref) <= 1e-13 * abs(ref), y
        assert abs(dv - ref_d) <= 1e-13 * abs(ref_d), y


@pytest.mark.parametrize("weight2,level,period", [(-20, 1, 1), (-1, 4, 3)])
@pytest.mark.parametrize("x", [0.3, -0.2])
def test_point_evaluators_off_axis_match_mpmath(weight2, level, period, x):
    # a- and b-terms at Re z != 0, where the phases e^{2 pi i n Re z / M}
    # and the delta_k weight k/2 + 2 pi i n z / M are complex
    mp = pytest.importorskip("mpmath")
    f = FormData(
        weight2=weight2, level=level, psi=trivial_character(level), period=period,
        n0=1, a={-1: 0.5, 0: 1.0, 1: 2.0, 3: -1j},
        b={-1: 1.0, -2: -0.5, -3: 0.25j}, growth_C=4.0, exhaustive=True,
    )
    k = f.k
    for y in (0.35, 0.8, 1.7):
        z = complex(x, y)
        with mp.workdps(40):
            zm = mp.mpc(x, y)
            ref = ref_d = 0
            terms = [(n, c, 1) for n, c in f.a.items()] + [
                (n, c, mp.gammainc(1 - k, -4 * mp.pi * n * y / period)) for n, c in f.b.items()
            ]
            for n, c, gamma in terms:
                term = c * gamma * mp.exp(2j * mp.pi * n * zm / period)
                ref += term
                ref_d += term * (mp.mpf(k) / 2 + 2j * mp.pi * n * zm / period)
            ref, ref_d = complex(ref), complex(ref_d)
        assert abs(eval_point(f, z) - ref) <= 1e-13 * abs(ref), y
        assert abs(delta_k_point(f, z) - ref_d) <= 1e-13 * abs(ref_d), y


def test_delta_modularity_pointwise():
    f = fixture("delta", 96)
    lhs = eval_point(f, 2j)
    rhs = 2.0 ** -12 * eval_point(f, 0.5j)
    assert abs(lhs - rhs) < 1e-12 * abs(lhs) + 1e-30
    z = 0.3 + 1.1j
    assert abs(eval_point(f, -1 / z) - z ** 12 * eval_point(f, z)) < 1e-13 * abs(
        eval_point(f, -1 / z)
    )


def test_eval_iy_matches_pointwise():
    f = fixture("j744", 96)
    ys = np.array([0.7, 1.0, 2.5])
    vec = eval_iy(f, ys)
    for y, v in zip(ys, vec):
        assert abs(v - eval_point(f, 1j * float(y))) < 1e-12 * abs(v)


def _full_sum(f, zs, delta):
    """The a-part over every column in one table, subnormals and all:
    its values and absolute masses sum |a(n) term(n)|."""
    ns, vals = f._arrays("a")
    arg = 2j * math.pi * (zs[:, None] * ns) / f.period
    terms = np.exp(arg.real) * (np.exp(1j * arg.imag) if np.any(zs.real) else 1.0)
    if delta:
        terms = terms * (0.5 * f.k + arg)
    return terms @ vals, np.abs(terms) @ np.abs(vals)


@pytest.mark.parametrize("name", ["j744", "inv_delta", "spike"])
@pytest.mark.parametrize("off_axis", [False, True])
@pytest.mark.parametrize("delta", [False, True])
def test_evaluator_blocks_and_column_cut_match_the_full_sum(name, off_axis, delta):
    # unsorted ordinates over several row blocks, most of them past the point
    # where e^{-2 pi n y} leaves the normal range for the top columns.  The
    # spike's a(400) = 1e288 makes its terms count down to e^{-700}, so only
    # a cut at the normal range itself passes; one ordinate a call puts each
    # at the smallest y of its block, where the cut is made
    rng = np.random.default_rng(5)
    if name == "spike":
        f = FormData(weight2=24, level=1, psi=trivial_character(1), a={1: 1.0, 400: 1e288},
                     exhaustive=True)
        ys = np.linspace(0.25, 0.32, 300)
    else:
        f = fixture(name, 768)
        ys = rng.permutation(np.concatenate([np.linspace(0.25, 11.5, 2000), [0.3, 7.0]]))
    zs = (rng.uniform(-0.5, 0.5, len(ys)) if off_axis else 0.0) + 1j * ys
    if name == "spike":
        got = np.concatenate([_evaluate(f, [z], delta, 1e-6) for z in zs])
    else:
        got = _evaluate(f, zs, delta, 1e-6)
    ref, mass = _full_sum(f, zs, delta)
    # ulps of the mass: off the axis the delta_k sums cancel, and one
    # term's last bit is up to 1e6 ulps of the value
    assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * mass)


def test_truncation_consistency_against_declared_tail():
    # eval at precision 64 vs 32 differs by less than the 32-term bound
    from maass_lseries.form import _hol_tail

    for name in ("delta", "e4", "e6", "theta"):
        f64 = fixture(name, 64)
        f32 = fixture(name, 32)
        for y in (0.25, 1.0, 3.0):
            bound = _hol_tail(f32, 2 * math.pi * y / f32.period)
            diff = abs(eval_point(f64, 1j * y, tol=1.0) - eval_point(f32, 1j * y, tol=1.0))
            assert diff <= bound + 1e-15
    for name in ("j744", "inv_delta"):
        f64 = fixture(name, 96)
        f32 = fixture(name, 48)
        for y in (1.0, 3.0):
            bound = _hol_tail(f32, 2 * math.pi * y / f32.period)
            diff = abs(eval_point(f64, 1j * y, tol=1.0) - eval_point(f32, 1j * y, tol=1.0))
            assert diff <= bound + 1e-15


def test_insufficient_data_error():
    f = fixture("inv_delta", 32)
    with pytest.raises(InsufficientDataError) as exc:
        eval_point(f, 0.05j, tol=1e-12)
    assert exc.value.required_n is None or exc.value.required_n > 32


def test_delta_k_insufficient_data_names_required_n():
    f = fixture("inv_delta", 32)
    with pytest.raises(InsufficientDataError) as exc:
        delta_k_point(f, 0.05j)
    assert exc.value.required_n is not None and exc.value.required_n > 32


def test_delta_k_finite_difference_oracle():
    f = fixture("delta", 96)
    h = 1e-5
    z = 1j
    fd = (eval_point(f, z + 0.5 * h) - eval_point(f, z - 0.5 * h)) / h
    assembled = z * fd + (f.k / 2) * eval_point(f, z)
    dk = delta_k_point(f, z)
    assert abs(dk - assembled) < 1e-7 * max(1.0, abs(dk))


def test_delta_k_single_term_closed_forms():
    # constant: (k/2) c
    fc = _single(0, val=3.0)
    assert abs(delta_k_point(fc, 0.7j) - (12.0 / 2) * 3.0) < 1e-12
    # single a(1): (k/2 - 2 pi y) e^{-2 pi y}
    f1 = _single(1)
    y = 0.8
    expect = (6.0 - 2 * math.pi * y) * math.exp(-2 * math.pi * y)
    assert abs(delta_k_point(f1, 1j * y) - expect) < 1e-13


def test_delta_k_linearity():
    # within a fixed weight, delta_k is linear in the coefficient data
    rng = np.random.default_rng(2)
    f = fixture("delta", 64)
    g = FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a={1: 2.0, 3: -1.0, 7: 0.5}, b={}, growth_C=4.0, exhaustive=True,
    )
    for _ in range(5):
        al, be = rng.normal(size=2)
        z = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.6, 2.0))
        combo = FormData(
            weight2=24, level=1, psi=trivial_character(1), n0=0,
            a={n: al * f.a.get(n, 0) + be * g.a.get(n, 0)
               for n in set(f.a) | set(g.a)},
            b={}, growth_C=6.0,
        )
        lhs = delta_k_point(combo, z)
        rhs = al * delta_k_point(f, z) + be * delta_k_point(g, z)
        assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(lhs))


def test_half_integral_level_condition():
    with pytest.raises(DomainError):
        FormData(weight2=1, level=3, psi=trivial_character(3), a={}, b={}, growth_C=1.0)
    FormData(weight2=1, level=4, psi=trivial_character(4), a={}, b={}, growth_C=1.0)


def test_twist_identity_and_period():
    f = fixture("delta", 64)
    t1 = twist(f, trivial_character(1))
    assert t1.period == 1
    assert all(abs(t1.a[n] - f.a[n]) < 1e-14 for n in f.a)
    chi = characters_mod(3)[1]
    t3 = twist(f, chi)
    assert t3.period == 3


def test_twist_pointwise_against_matrix_sum():
    # f_chi(iy) = sum_u conj(chi)(u) f((iy+u)/D) for f = delta, D = 3
    f = fixture("delta", 96)
    chi = characters_mod(3)[1]
    chib = chi.conjugate()
    ft = twist(f, chi)
    for y in (0.8, 1.0, 1.3):
        lhs = eval_point(ft, 1j * y)
        terms = [complex(chib(u)) * eval_point(f, (1j * y + u) / 3) for u in range(3)]
        scale = max(max(abs(t) for t in terms), 1e-30)
        assert abs(lhs - sum(terms)) < 1e-9 * scale


def test_twist_ramanujan_sums():
    # trivial chi mod 3 multiplies a(n) by the Ramanujan sum c_3(n)
    f = FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a={1: 1.0, 2: 1.0, 3: 1.0}, b={}, growth_C=4.0, exhaustive=True,
    )
    t = twist(f, characters_mod(3)[0])
    assert abs(t.a[1] - (-1)) < 1e-12
    assert abs(t.a[2] - (-1)) < 1e-12
    assert abs(t.a[3] - 2) < 1e-12


def test_twist_table_equals_gauss_sum_bit_for_bit():
    # a(n) = 1 for n = 1..D, so the twisted a(n) is tau_chibar(n mod D) itself
    for D in range(1, 80):
        f = FormData(
            weight2=24, level=1, psi=trivial_character(1), n0=0,
            a={n: 1.0 for n in range(1, D + 1)}, b={}, growth_C=4.0, exhaustive=True,
        )
        for chi in characters_mod(D):
            ns, taus = twist(f, chi)._arrays("a")
            chibar = chi.conjugate()
            table = [gauss_sum(chibar, r) for r in range(D)]
            assert taus.tolist() == [table[n % D] for n in ns], (D, chi.index)
    one = twist(replace(f, a={1: 1.0, 2: -3.5}), trivial_character(1))
    assert one._arrays("a")[1].tolist() == [1.0, -3.5]  # D = 1 multiplies by exactly 1


def test_twist_domain_errors():
    f = fixture("delta", 32)
    chi3 = characters_mod(3)[1]
    with pytest.raises(DomainError):
        twist(twist(f, chi3), chi3)  # no iterated twists
    th = fixture("theta", 32)
    with pytest.raises(DomainError):
        twist(th, characters_mod(2)[0])  # gcd(2, 4) != 1


def test_shadow_roundtrip_reproduces_tau():
    d = fixture_qexp("delta", 21)
    k = 12
    b = {
        -n: -complex(d.coefficient(n)).conjugate() * (4 * math.pi * n) ** (1 - k)
        for n in range(1, 21)
    }
    g = FormData(
        weight2=2 * (2 - k), level=1, psi=trivial_character(1), n0=0,
        a={}, b=b, growth_C=6.0, exhaustive=True,
    )
    sc = shadow_coeffs(g)
    for n in range(1, 21):
        assert round(sc[n].real) == d.coefficient(n)
        assert abs(sc[n].imag) < 1e-9 * abs(sc[n])


def test_shadow_formula_and_signs():
    k = 12
    g = FormData(
        weight2=2 * (2 - k), level=1, psi=trivial_character(1), n0=0,
        a={}, b={-1: -(4 * math.pi) ** (1 - k)}, growth_C=4.0, exhaustive=True,
    )
    sc = shadow_coeffs(g)
    assert abs(sc[1] - 1.0) < 1e-12
    # all-real-negative c^- gives positive shadow coefficients
    g2 = replace(g, b={-1: -0.5, -2: -2.0})
    sc2 = shadow_coeffs(g2)
    assert sc2[1].real > 0 and sc2[2].real > 0


def test_shadow_vanishes_signal():
    g = FormData(
        weight2=-20, level=1, psi=trivial_character(1), n0=0,
        a={1: 1.0}, b={}, growth_C=4.0,
    )
    with pytest.raises(ShadowVanishesError):
        shadow_coeffs(g)


def test_validate_growth_cases():
    zero = FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a={1: 0.0, 2: 0.0}, b={}, growth_C=1.0,
    )
    rep = validate_growth(zero)
    assert rep.C_fit == 0.0 and rep.ok
    d30 = replace(fixture("delta", 64), growth_C=30.0)
    assert validate_growth(d30).ok
    # a(n) = e^n outgrows e^{C sqrt n} for any declared C once n > C^2
    runaway = FormData(
        weight2=24, level=1, psi=trivial_character(1), n0=0,
        a={n: math.exp(n) for n in range(1, 40)}, b={}, growth_C=5.0,
    )
    assert not validate_growth(runaway).ok


def test_json_schema_roundtrip():
    f = fixture("theta", 32)
    d = form_to_dict(f)
    assert set(d) == {
        "weight2", "level", "character", "period", "n0", "growth_C", "label", "exhaustive", "a", "b",
    }
    f2 = form_from_dict(d)
    assert f2.weight2 == f.weight2 and f2.level == f.level
    assert all(abs(f2.a[n] - f.a[n]) < 1e-15 for n in f.a)
    with pytest.raises(SchemaError):
        form_from_dict({"weight2": 2})


def test_json_roundtrip_keeps_exhaustive_and_label():
    # the harmonic g of weight -10 with shadow Delta, a finite Fourier
    # polynomial: exported and loaded back it must still need no tail
    from maass_lseries.lseries import lseries_series
    from maass_lseries.testfn import standard_battery

    k = 12
    tau = fixture("delta", 13).a
    g = FormData(
        weight2=2 * (2 - k), level=1, psi=trivial_character(1), n0=1,
        a={-1: 1.0, 0: 2.0, 1: 5.0, 2: -1.0},
        b={-n: -complex(tau[n]).conjugate() * (4 * math.pi * n) ** (1 - k) for n in range(1, 13)},
        growth_C=8.0, label="g", exhaustive=True,
    )
    g2 = form_from_dict(form_to_dict(g))
    assert (g2.label, g2.exhaustive) == ("g", True)
    phi = standard_battery()[3]
    want, got = lseries_series(g, phi), lseries_series(g2, phi)
    assert got.trunc_err == want.trunc_err == 0.0
    assert got.value == want.value
    # files written without the two fields still load, as non-exhaustive data
    old = {key: v for key, v in form_to_dict(g).items() if key not in ("label", "exhaustive")}
    g3 = form_from_dict(old)
    assert (g3.label, g3.exhaustive) == ("", False)
    with pytest.raises(SchemaError):
        form_from_dict({**form_to_dict(g), "exhaustive": "false"})
