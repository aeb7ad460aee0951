"""Exact q-expansion arithmetic and the fixture forms."""

from fractions import Fraction
from math import gcd

import pytest

from maass_lseries.errors import DomainError, RangeOverflowError
from maass_lseries.form import validate_growth
from maass_lseries.qseries import (
    fixture,
    fixture_pair,
    fixture_qexp,
    qexp,
    qexp_add,
    qexp_invert,
    qexp_mul,
    qexp_pow,
    qexp_scale,
)


def _exact(c):
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _schoolbook_mul(x, y):
    """First min(len) coefficients of x(q) y(q), summed as Fractions."""
    return [_exact(sum((Fraction(x[i]) * y[m - i] for i in range(m + 1)), Fraction(0)))
            for m in range(min(len(x), len(y)))]


def _schoolbook_invert(x):
    """1/x(q) term by term: inv[m] = -(sum_{j >= 1} x[j] inv[m - j]) / x[0]."""
    inv = [1 / Fraction(x[0])]
    for m in range(1, len(x)):
        inv.append(-sum(Fraction(x[j]) * inv[m - j] for j in range(1, m + 1)) / x[0])
    return [_exact(c) for c in inv]


def _typed(coeffs):
    return [(type(c), c) for c in coeffs]


def test_mul_basic():
    a = qexp(0, [1, 1] + [0] * 6)   # 1 + q
    b = qexp(0, [1, -1] + [0] * 6)  # 1 - q
    p = qexp_mul(a, b)
    assert p.lead == 0
    assert p.coeffs[:3] == (1, 0, -1)


def test_mul_leads_add():
    a = qexp(2, [3, 1])
    b = qexp(-1, [2, 5])
    p = qexp_mul(a, b)
    assert p.lead == 1 and p.coeffs[0] == 6


def test_mul_against_convolution_oracle():
    e4 = fixture_qexp("e4", 12)
    p = qexp_mul(e4, e4)
    for m in range(12):
        conv = sum(
            e4.coefficient(i) * e4.coefficient(m - i) for i in range(m + 1)
        )
        assert p.coefficient(m) == conv


def test_invert_geometric():
    g = qexp_invert(qexp(0, [1, -1] + [0] * 6))
    assert g.coeffs == (1,) * 8


def test_invert_delta_and_involution():
    d = fixture_qexp("delta", 24)
    inv = qexp_invert(d)
    assert inv.lead == -1 and inv.coeffs[0] == 1
    assert qexp_mul(d, inv).coeffs[0] == 1
    assert all(c == 0 for c in qexp_mul(d, inv).coeffs[1:])
    back = qexp_invert(inv)
    assert back.lead == d.lead and back.coeffs == d.coeffs


def test_invert_nonunit_lead_uses_rationals():
    inv = qexp_invert(qexp(0, [2, 1, 0, 0]))
    assert inv.coeffs[0] == Fraction(1, 2)


def test_invert_zero_series_rejected():
    with pytest.raises(DomainError):
        qexp_invert(qexp(0, [0, 0, 0]))


def test_pow():
    a = qexp(0, [1, 1, 0, 0, 0])
    cube = qexp_pow(a, 3)
    assert cube.coeffs[:4] == (1, 3, 3, 1)


def test_delta_coefficients():
    d = fixture_qexp("delta", 8)
    assert d.lead == 1
    assert d.coeffs[:5] == (1, -24, 252, -1472, 4830)


def test_ramanujan_congruence():
    # tau(n) = sigma_11(n) mod 691 for n <= 50
    d = fixture_qexp("delta", 51)
    for n in range(1, 51):
        sigma11 = sum(x ** 11 for x in range(1, n + 1) if n % x == 0)
        assert (d.coefficient(n) - sigma11) % 691 == 0


def test_eisenstein_series():
    e4 = fixture_qexp("e4", 6)
    e6 = fixture_qexp("e6", 6)
    assert e4.coeffs[:3] == (1, 240, 2160)
    assert e6.coeffs[:3] == (1, -504, -16632)


def test_j744_expansion():
    j = fixture_qexp("j744", 8)
    assert j.lead == -1
    assert j.coefficient(-1) == 1
    assert j.coefficient(0) == 0  # the -744 normalization, exactly
    assert j.coefficient(1) == 196884
    assert j.coefficient(2) == 21493760


def test_inv_delta_expansion():
    inv = fixture_qexp("inv_delta", 8)
    assert inv.lead == -1
    assert inv.coeffs[:4] == (1, 24, 324, 3200)


def test_theta_expansion():
    th = fixture_qexp("theta", 26)
    assert th.coefficient(0) == 1
    for n in (1, 4, 9, 16, 25):
        assert th.coefficient(n) == 2
    for n in (2, 3, 5, 6, 7, 8, 10, 24):
        assert th.coefficient(n) == 0


def test_fixture_metadata():
    d = fixture("delta", 64)
    assert (d.weight2, d.level, d.n0) == (24, 1, 0)
    th = fixture("theta", 64)
    assert (th.weight2, th.level) == (1, 4)
    j = fixture("j744", 64)
    assert j.n0 == 1 and j.a[-1] == 1
    with pytest.raises(DomainError):
        fixture_qexp("nope", 16)
    with pytest.raises(DomainError):
        fixture_qexp("delta", 1)


def test_fixture_growth_bound_under_30():
    for name in ("delta", "e4", "e6", "j744", "inv_delta", "theta"):
        f = fixture(name, 64)
        rep = validate_growth(f)
        assert rep.ok, name
        assert rep.C_fit <= 30.0, name


def test_fixture_pair_self_dual():
    f, g = fixture_pair("delta", 32)
    assert f is g


def _series_strategy():
    from hypothesis import strategies as st

    big = st.integers(-(2**200), 2**200)
    rational = st.one_of(big, st.fractions(max_denominator=10**12))
    zeros = st.integers(1, 12).map(lambda k: [0] * k)

    def series(coeff):
        runs = st.lists(st.one_of(st.lists(coeff, min_size=1, max_size=6), zeros), max_size=6)
        return st.tuples(st.integers(-3, 3), coeff.filter(bool), runs).map(
            lambda t: (t[0], [t[1]] + [c for run in t[2] for c in run]))

    # integer-only series take the products' common-denominator-free path
    return st.sampled_from([big, rational]).flatmap(series)


def test_mul_and_invert_against_schoolbook_oracle():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings

    @settings(max_examples=150, deadline=None)
    @given(_series_strategy(), _series_strategy())
    def check(a, b):
        (la, x), (lb, y) = a, b
        p = qexp_mul(qexp(la, x), qexp(lb, y))
        assert p.lead == la + lb
        assert _typed(p.coeffs) == _typed(_schoolbook_mul(x, y))
        inv = qexp_invert(qexp(la, x))
        assert inv.lead == -la
        assert _typed(inv.coeffs) == _typed(_schoolbook_invert(x))

    check()


@pytest.mark.parametrize("bad", [0.5, 2.0, 1 + 0j])
def test_inexact_coefficients_rejected(bad):
    a = qexp(0, [1, bad, 3])
    with pytest.raises(DomainError, match="exact"):
        qexp_mul(a, qexp(0, [1, 1, 1]))
    with pytest.raises(DomainError, match="exact"):
        qexp_invert(a)
    with pytest.raises(DomainError, match="exact"):
        qexp_invert(qexp(0, [bad]))


def test_fixture_identities_at_768():
    p = 768
    e4, e6, d = (fixture_qexp(name, p) for name in ("e4", "e6", "delta"))
    # E4^3 - E6^2 = 1728 Delta (the constant terms cancel, so the lead is q^1)
    diff = qexp_add(qexp_pow(e4, 3), qexp_scale(qexp_pow(e6, 2), -1))
    assert diff.lead == 1 and diff.coeffs == qexp_scale(d, 1728).coeffs[: p - 1]
    j = fixture_qexp("j744", p)
    num = qexp_pow(e4, 3)
    prod = qexp_mul(num, fixture_qexp("inv_delta", p))
    assert j.lead == -1 and j.coeffs == (prod.coeffs[0], prod.coeffs[1] - 744) + prod.coeffs[2:]
    # (j744 + 744) Delta = E4^3 by an integer convolution, without an inverse
    jd = [sum(j.coeffs[i] * d.coeffs[m - i] for i in range(m + 1)) for m in range(p)]
    jd = [c + 744 * dc for c, dc in zip(jd, (0,) + d.coeffs)]
    assert jd == list(num.coeffs)
    tau = d.coefficient
    for m in range(2, 28):
        for n in range(m + 1, p // m + 1):
            if gcd(m, n) == 1:
                assert tau(m * n) == tau(m) * tau(n)
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23):
        assert tau(q * q) == tau(q) ** 2 - q**11


def test_fixture_past_the_double_range_names_the_usable_precision():
    # 1/Delta's coefficient of q^3713 is the first beyond the largest double
    with pytest.raises(RangeOverflowError, match=r"'inv_delta'.*q\^3713.*precision <= 3714"):
        fixture("inv_delta", 3715)
    assert all(abs(complex(c)) < float("inf") for c in fixture_qexp("inv_delta", 3715).coeffs[:3714])
