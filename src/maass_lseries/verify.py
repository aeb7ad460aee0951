"""Functional-equation residuals, converse sweeps, and identity checks.

The residual machinery compares both sides of the twisted functional
equations numerically: for integral weight

    L_{f_chi}(phi) = i^k chi(-N) psi(D) N^{1-k/2} L_{g_chibar}(phi|_{2-k} W_N)

with g = f|_k W_N, the delta_k companion carrying the opposite sign, and
the half-integral analogue picking up the Kronecker character mod D and an
epsilon factor.  The converse sweep runs these residuals over all moduli
D < N^2 coprime to N, all characters mod D, and a battery of test
functions, reporting worst witnesses.

Also here: the derivative lift a(n) -> (2 pi n)^{k-1} a(n) with its
L-series transfer identity, and the summation-formula building blocks
(finite incomplete-gamma expansion, Bessel-vs-Whittaker kernel identity,
shadow-consistent decomposition).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, MembershipError
from .form import FormData
from .lseries import _series_pair, _series_tails, _twisted, _weighted_transform_sums, lseries_series
from .specials import (
    Character,
    _gamma_half_exp,
    _matmul,
    _whittaker_kernel,
    bessel_J_grid,
    characters_mod,
    epsilon_d,
    i_pow,
    kronecker,
    kronecker_character,
    trivial_character,
)
from .testfn import (
    _CHUNK,
    _GRIDS,
    _SEED_LEVELS,
    ExpRationalPiece,
    TestFunction,
    _Bump,
    _ExpRatPieces,
    _Spline,
    _exp_normal,
    _graded_edges,
    _leggauss,
    _padd,
    _pmul,
    _pscale,
    derivative,
    laplace_lattice,
    quadrature,
    slash_W,
    standard_battery,
)

_TWO_PI = 2.0 * math.pi
_REL_FLOOR = 1e-30


@dataclass(frozen=True, slots=True)
class FEReport:
    """Both sides of one functional-equation instance and their residuals.

    ``lhs_err`` and ``rhs_err`` carry the propagated truncation +
    quadrature budgets of the two sides; when either dominates its value
    (``error_dominated``) the residual carries no verdict about the data,
    only about the evaluation.  The residuals and the verdict are derived
    from the two sides and ``tol``.
    """

    lhs: complex
    rhs: complex
    prefactor: complex
    phi_id: str
    chi_id: str
    equation: str
    tol: float
    lhs_err: float = 0.0
    rhs_err: float = 0.0

    @property
    def abs_residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_residual(self) -> float:
        return self.abs_residual / max(abs(self.lhs), abs(self.rhs), _REL_FLOOR)

    @property
    def passed(self) -> bool:
        return self.rel_residual <= self.tol

    @property
    def error_dominated(self) -> bool:
        return max(self.lhs_err, self.rhs_err) > 0.1 * max(
            abs(self.lhs), abs(self.rhs), _REL_FLOOR
        )

    @property
    def verdict_reliable(self) -> bool:
        """Whether the evaluation budgets are small enough that the
        pass/fail verdict at ``tol`` reflects the data, not the numerics."""
        scale = max(abs(self.lhs), abs(self.rhs), _REL_FLOOR)
        return max(self.lhs_err, self.rhs_err) <= 0.5 * self.tol * scale

    @staticmethod
    def build(lhs, rhs, prefactor, phi_id, chi_id, equation, tol,
              lhs_err=0.0, rhs_err=0.0) -> "FEReport":
        return FEReport(
            complex(lhs), complex(rhs), complex(prefactor), phi_id, chi_id, equation,
            tol, float(lhs_err), float(rhs_err),
        )


@lru_cache(maxsize=None)
def _chi_id(chi: Character) -> str:
    """One shared id string per character, however many reports carry it."""
    return f"{chi.modulus}.{chi.index}"


def _side_tails(twisted: tuple[FormData, np.ndarray | None], phi: TestFunction, side: str):
    """``_series_tails`` of both rows of a twisted form (``lseries._twisted``)
    at phi; a membership failure names the side.  It is raised outside the
    handler, so nothing of the failed certificate is kept."""
    try:
        return _series_tails(twisted[0], phi, True)
    except MembershipError as exc:
        message = f"{side} side: {exc}"
    raise MembershipError(message, side)


def _fe_side(twisted: tuple[FormData, np.ndarray | None], phi: TestFunction, side: str, tails=None):
    """(plain, delta_k) series values of a twisted form at phi, from its
    ``_side_tails`` (taken here unless given)."""
    form, rounding = twisted
    if tails is None:
        tails = _side_tails(twisted, phi, side)
    return _series_pair(form, phi, True, rounding, tails)


@dataclass(frozen=True, eq=False)
class _TwistedFE:
    """What a twisted functional equation fixes before its test function:
    f_chi and g_{chi_right} (each with its coefficients' rounding), the
    prefactor c, and the slash phi -> phi|_{2-k} W_N of the right side."""

    chi: Character
    left: tuple[FormData, np.ndarray | None]
    right: tuple[FormData, np.ndarray | None]
    prefactor: complex
    slash: tuple[float, int]

    @classmethod
    def build(cls, f: FormData, g: FormData, chi: Character, chi_right: Character, prefactor):
        return cls(chi, _twisted(f, chi), _twisted(g, chi_right), prefactor,
                   (2.0 - f.weight2 / 2.0, f.level))

    def reports(self, phi: TestFunction, tol: float) -> tuple[FEReport, FEReport]:
        """L_{f_chi}(phi) = c L_{g_chi_right}(phi|_{2-k} W_N) and its delta_k
        companion, which carries -c; each side is evaluated once for both.
        Both sides' certificates come before either side's transforms, so an
        instance that fails on its right side evaluates nothing."""
        phi_w = slash_W(phi, *self.slash)
        tails = _side_tails(self.left, phi, "left"), _side_tails(self.right, phi_w, "right")
        lhs, lhs_d = _fe_side(self.left, phi, "left", tails[0])
        rhs, rhs_d = _fe_side(self.right, phi_w, "right", tails[1])
        prefactor = self.prefactor
        return tuple(
            FEReport.build(
                left.value, c * right.value, c, phi.label, _chi_id(self.chi), equation, tol,
                left.trunc_err + left.quad_err, abs(prefactor) * (right.trunc_err + right.quad_err),
            )
            for left, right, c, equation in (
                (lhs, rhs, prefactor, "FE"),
                (lhs_d, rhs_d, -prefactor, "FE-delta"),
            )
        )


def _fe_equation(f: FormData, g: FormData, chi: Character) -> _TwistedFE:
    """The equation at chi, in integral or half-integral weight by f's
    parity (see ``fe_residual_int`` and ``fe_residual_half``)."""
    half = f.weight2 % 2 != 0
    if g.weight2 % 2 != f.weight2 % 2:
        raise DomainError("f and g must have the same weight parity")
    N = f.level
    D = chi.modulus
    if half and N % 4 != 0:
        raise DomainError("half-integral weight requires 4 | N")
    if half and D % 2 == 0:
        raise DomainError("twisting modulus must be odd in half-integral weight")
    if math.gcd(D, N) != 1:
        raise DomainError("twisting modulus must be coprime to the level")
    chi_right = chi.conjugate()
    if half:
        kk = (f.weight2 - 1) // 2  # k - 1/2, an integer
        lead = float(kronecker(-1, D)) ** kk * kronecker(N, D) * chi(-N) * f.psi(D) / epsilon_d(D)
        chi_right = chi_right * kronecker_character(D)
    else:
        lead = i_pow(f.weight2 // 2) * chi(-N) * f.psi(D)
    prefactor = lead * float(N) ** (1.0 - 0.25 * f.weight2)
    return _TwistedFE.build(f, g, chi, chi_right, prefactor)


def fe_residual_int(
    f: FormData,
    g: FormData,
    chi: Character,
    phi: TestFunction,
    tol: float = 1e-8,
) -> tuple[FEReport, FEReport]:
    """Integral-weight functional equation and its delta_k companion.

    Returns (plain report, delta_k report); membership failures identify
    which side of the pairing broke.
    """
    if f.weight2 % 2 != 0:
        raise DomainError("fe_residual_int requires integral weight")
    return _fe_reports(f, g, chi, phi, tol)


def fe_residual_half(
    f: FormData,
    g: FormData,
    chi: Character,
    phi: TestFunction,
    tol: float = 1e-6,
) -> tuple[FEReport, FEReport]:
    """Half-integral-weight functional equation and its delta_k companion.

    The right side is twisted by chibar * (.|D) and carries the factor
    (-1|D)^{k-1/2}-style parity sign, (N|D), and 1/epsilon_D.
    """
    if f.weight2 % 2 == 0:
        raise DomainError("fe_residual_half requires half-integral weight")
    return _fe_reports(f, g, chi, phi, tol)


def _fe_reports(f: FormData, g: FormData, chi: Character, phi: TestFunction, tol: float):
    """``_fe_equation(f, g, chi).reports(phi, tol)``, one instance on its
    own.  A membership failure is raised afresh from here, so its traceback
    keeps none of the frames that held the twisted forms."""
    try:
        return _fe_equation(f, g, chi).reports(phi, tol)
    except MembershipError as exc:
        message, side = str(exc), exc.side
    raise MembershipError(message, side)


def _fe_tol(f: FormData, tol: float | None) -> float:
    return (1e-8 if f.weight2 % 2 == 0 else 1e-6) if tol is None else tol


def fe_pair(f: FormData, g: FormData, chi: Character, phi: TestFunction, tol=None):
    """Dispatch on weight parity; default tolerances 1e-8 / 1e-6, decided
    here for every caller.  Twists f and g afresh on every call; a sweep
    over many test functions goes through ``fe_sweep``."""
    return _fe_reports(f, g, chi, phi, _fe_tol(f, tol))


# ----------------------------------------------------------------------------
# converse sweep


@dataclass(frozen=True)
class SweepReport:
    """``verdict`` is "consistent-with-modular", "failed", or "inconclusive"
    when every failing report is unreliable (its budget swamps the
    tolerance), so the numerics, not the data, decide those failures."""

    verdict: str
    n_checked: int
    worst: FEReport | None
    failures: tuple[FEReport, ...] = ()
    reports: tuple[FEReport, ...] = field(default=(), repr=False)

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent-with-modular"

    @property
    def unreliable_count(self) -> int:
        """Instances whose evaluation budget swamps the stated tolerance."""
        return sum(1 for r in self.reports if not r.verdict_reliable)


def sweep_instances(
    f: FormData, battery, moduli, primitive_only: bool = False
) -> Iterator[tuple[int, Character, TestFunction]]:
    """The (D, chi, phi) instances of a twisted functional-equation sweep.

    Every D of ``moduli`` coprime to the level (and odd in half-integral
    weight), every character mod D (only the primitive ones with
    ``primitive_only``) and every test function of ``battery``, in that
    order.  The caller chooses the moduli: ``converse_sweep`` takes D < N^2,
    ``fe-check --dmax`` takes D = 1..dmax.
    """
    half = f.weight2 % 2 != 0
    for D in moduli:
        if math.gcd(D, f.level) != 1 or (half and D % 2 == 0):
            continue
        for chi in characters_mod(D):
            if chi.is_primitive or not primitive_only:
                for phi in battery:
                    yield D, chi, phi


def fe_sweep(
    f: FormData,
    g: FormData,
    battery,
    moduli,
    tol: float | None = None,
    primitive_only: bool = False,
) -> list[tuple[int, Character, TestFunction, tuple[FEReport, FEReport] | MembershipError]]:
    """``fe_pair`` at every instance of ``sweep_instances``, in its order, as
    (D, chi, phi, result) with ``result`` the (plain, delta_k) reports, or the
    ``MembershipError`` of an instance whose side its envelope cannot
    certify.  Any other error ends the sweep.

    Each (f, chi) is twisted once, both sides with the prefactor, and each
    grid is sampled once per grading depth (``testfn._GRIDS``), so each
    instance costs only its test function's transforms.  The twists and the
    grids live only for the call; the reports equal ``fe_pair``'s bit for bit.
    """
    tol = _fe_tol(f, tol)
    out, equation = [], None
    token = _GRIDS.set({})
    try:
        for D, chi, phi in sweep_instances(f, battery, moduli, primitive_only):
            if equation is None or equation.chi != chi:
                equation = _fe_equation(f, g, chi)
            try:
                result = equation.reports(phi, tol)
            except MembershipError as exc:
                result = exc.with_traceback(None)  # its frames would hold the twists
            out.append((D, chi, phi, result))
    finally:
        _GRIDS.reset(token)
    return out


def converse_sweep(
    f: FormData,
    g: FormData,
    battery: list[TestFunction] | None = None,
    tol: float | None = None,
    dmax: int | None = None,
    primitive_only: bool = False,
) -> SweepReport:
    """Run the functional-equation hypotheses over (D, chi, phi) triples.

    D ranges over the moduli coprime to N below N^2, at most ``dmax`` (level
    1 checks the single D = 1 equation); ``primitive_only`` switches to the
    primitive-character variant, whose unbounded modulus quantifier is
    truncated at ``dmax``, 20 when None.  ``tol`` defaults to ``fe_pair``'s
    parity default.  Both the plain and the delta_k equations are
    required.  The verdict is monotone in the battery: adding test
    functions can only break consistency, never restore it.  A sweep whose
    failures are all unreliable is "inconclusive"; it is not consistent.
    An instance that fails its membership check aborts the verdict: the
    first such ``MembershipError`` in sweep order is raised.
    """
    if battery is None:
        battery = standard_battery()
    if primitive_only:
        if f.weight2 % 2 != 0:
            raise DomainError("the primitive-only sweep is stated for integral weight")
        d_top = 20 if dmax is None else dmax
    else:
        d_top = max(1, f.level ** 2 - 1)
        if dmax is not None:
            d_top = min(d_top, dmax)
    results = [res for *_, res in fe_sweep(f, g, battery, range(1, d_top + 1), tol, primitive_only)]
    for res in results:
        if isinstance(res, MembershipError):
            raise res
    reports = tuple(r for res in results for r in res)
    failures = tuple(r for r in reports if not r.passed)
    worst = max(reports, key=lambda r: r.rel_residual) if reports else None
    if not failures:
        verdict = "consistent-with-modular"
    elif any(r.verdict_reliable for r in failures):
        verdict = "failed"
    else:
        verdict = "inconclusive"
    return SweepReport(verdict, len(reports), worst, failures, reports)


# ----------------------------------------------------------------------------
# derivative lift and its identities


def derivative_lift(f: FormData) -> FormData:
    """a(n) -> (2 pi n)^{k-1} a(n): weight 2-k data lifted to weight k.

    The constant term is annihilated by the factor (2 pi n)^{k-1}, so data
    with a(0) != 0 (e.g. 1/delta) is accepted; the lift lands on Fourier
    data with vanishing constant term either way.
    """
    if len(f.b):
        raise DomainError("derivative_lift requires weakly holomorphic data")
    if f.weight2 % 2 != 0:
        raise DomainError("derivative_lift requires integral weight")
    k = 2 - f.weight2 // 2
    if k < 2 or k % 2 != 0:
        raise DomainError("lift weight k = 2 - weight must be an even integer >= 2")
    a = {
        n: v * (_TWO_PI * n) ** (k - 1)
        for n, v in f.a.items()
        if n != 0
    }
    # the polynomial factor (2 pi n)^{k-1} has to be absorbed into the
    # exponential envelope beyond the stored range; at the tail edge
    # (k-1) log(2 pi n) / sqrt(n) is decreasing, so bumping C by its value
    # there keeps the certificate valid
    n_edge = max((abs(n) for n in a), default=2)
    bump_c = (k - 1) * math.log(_TWO_PI * (n_edge + 1)) / math.sqrt(n_edge + 1)
    return replace(
        f, weight2=2 * k, a=a, growth_C=f.growth_C + bump_c + 0.1,
        label=f"lift[{f.label}]" if f.label else "lift",
    )


@dataclass(frozen=True, slots=True)
class IdentityReport:
    lhs: complex
    rhs: complex
    abs_residual: float
    rel_residual: float
    passed: bool
    detail: str = ""

    @classmethod
    def build(cls, lhs, rhs, tol, detail="", **extra):
        """The report on lhs = rhs at relative tolerance ``tol``; ``extra``
        fills a subclass's own fields."""
        lhs = complex(lhs)
        rhs = complex(rhs)
        a = abs(lhs - rhs)
        r = a / max(abs(lhs), abs(rhs), _REL_FLOOR)
        return cls(lhs, rhs, a, r, r <= tol, detail, **extra)


def _slashed_pieces(base, power: int) -> _ExpRatPieces:
    """x^{power} phi(1/x) for a bump or spline phi (``base``), as exact
    exp-rational pieces.

    At y = 1/x a bump exp(u0(y)/v0(y)) on (c1, c2) is exp(u(x)/v(x)) with
    v = (1 - c1 x)(c2 x - 1) and u = (4/w^2) v - x^2, and a spline piece
    sum_j c_j y^j is sum_j c_j x^{2m+power-j} / x^{2m} with u = 0, v = x and
    2m >= j - power for every j (power >= 0).
    """
    one, zero = Fraction(1), Fraction(0)
    if isinstance(base, _Bump):
        c1, c2 = Fraction(base.c1), Fraction(base.c2)
        v = _pmul((one, -c1), (-one, c2))
        u = _padd(_pscale(v, 4 / (c2 - c1) ** 2), (zero, zero, -one))
        snum = (zero,) * power + (one,)
        return _ExpRatPieces((ExpRationalPiece(snum, 0, u, v, 1.0 / float(c2), 1.0 / float(c1)),))
    pieces = []
    ks = base.knots_
    for i in range(len(base.pieces)):
        cs = base.global_piece(i)
        m = max(0, len(cs) - power) // 2
        snum = [zero] * (2 * m + power + 1)
        for j, c in enumerate(cs):
            snum[2 * m + power - j] = c
        lo, hi = 1.0 / ks[i + 1], 1.0 / ks[i]
        pieces.append(ExpRationalPiece(tuple(snum), m, (zero,), (zero, one), lo, hi))
    return _ExpRatPieces(tuple(pieces))


def alpha_identity_check(
    phi: TestFunction,
    k: int,
    tol: float = 1e-9,
    f: FormData | None = None,
) -> tuple[IdentityReport, IdentityReport]:
    """Two numerical assertions behind the derivative-lift proof.

    (i) the L-series transfer L_{lift(f)}(phi) = L_f(phi^{(k-1)}) for
    weakly holomorphic data f of weight 2-k;
    (ii) the pointwise involution identity
    (phi^{(k-1)})|_k W_1 = -(d/dx)^{k-1} [phi|_{2-k} W_1], sampled on 100
    interior points of the common support.
    Both follow from integration by parts on the compact support.
    """
    if k < 2 or k % 2 != 0:
        raise DomainError("identity stated for even k >= 2")
    base = phi.base
    if phi.ops or not isinstance(base, (_Bump, _Spline)):
        raise DomainError("alpha identity needs an unmodified bump or spline")
    if f is None:
        f = FormData(
            weight2=2 * (2 - k),
            level=1,
            psi=trivial_character(1),
            n0=1,
            a={-1: 1.0 + 0.0j, 1: 24.0 + 0.0j, 2: 324.0 + 0.0j},
            b={},
            growth_C=8.0,
            label="pole-type synthetic",
            exhaustive=True,
        )
    dphi = derivative(phi, k - 1)
    lhs_i = lseries_series(derivative_lift(f), phi)
    rhs_i = lseries_series(f, dphi)
    rep_i = IdentityReport.build(lhs_i.value, rhs_i.value, tol, "L-series transfer")

    # (ii) pointwise, on the reciprocal support away from phi's knots
    ks = base.knots()
    xs = np.linspace(1.0 / ks[-1], 1.0 / ks[0], 102)[1:-1]
    xs = np.array([x for x in xs if all(abs(1.0 / x - kn) > 1e-9 for kn in ks)])
    # left: x^{-k} phi^{(k-1)}(1/x); right: -(d/dx)^{k-1} [x^{k-2} phi(1/x)]
    lhs_vals = xs ** (-float(k)) * dphi.eval_many(1.0 / xs)
    rhs_vals = -derivative(TestFunction(_slashed_pieces(base, k - 2)), k - 1).eval_many(xs)
    scale = max(float(np.max(np.abs(lhs_vals))), float(np.max(np.abs(rhs_vals))), _REL_FLOOR)
    worst_abs = float(np.max(np.abs(lhs_vals - rhs_vals)))
    worst = worst_abs / scale
    rep_ii = IdentityReport(
        lhs=complex(scale),
        rhs=complex(scale),
        abs_residual=worst_abs,
        rel_residual=worst,
        passed=worst <= tol,
        detail="pointwise involution (sup over 100 samples)",
    )
    return rep_i, rep_ii


# ----------------------------------------------------------------------------
# summation-formula building blocks


def gf_term_check(n: int, k: int, phi: TestFunction, tol: float = 1e-10) -> IdentityReport:
    """Finite incomplete-gamma expansion of the shadow-side kernel.

    (4 pi n)^{1-k} int Gamma(k-1, 4 pi n y) e^{2 pi n y} phi(y) dy
      = sum_{l=0}^{k-2} (k-2)!/l! (4 pi n)^{1-k+l} int e^{-2 pi n y} y^l phi(y) dy,
    exact for even k >= 2 because Gamma(k-1, x) is e^{-x} times a
    polynomial.  Both sides integrate over y by the same adaptive rule,
    seeded with phi's graded edges (``_gamma_moment`` and ``_gf_moments``);
    the identity holds pointwise in y, as for ``mf_term_check``.
    """
    if k < 2 or k % 2 != 0 or n < 1:
        raise DomainError("gf term check needs even k >= 2 and n >= 1")
    c = 4.0 * math.pi * n
    lhs = c ** (1 - k) * _gamma_moment(phi, k, [c], [1.0])
    return IdentityReport.build(lhs, _gf_moments(phi, k, [n], [1.0]), tol, f"gf term n={n} k={k}")


def _gamma_moment(phi: TestFunction, k: int, cs, weights) -> complex:
    """sum_c weight_c int Gamma(k-1, c y) e^{c y / 2} phi(y) dy, one adaptive
    quadrature over a (nodes x c) table."""
    return _seeded_quadrature(
        phi, lambda ys: _matmul(_gamma_half_exp(k - 1, np.outer(ys, cs)), weights), 1e-13)[0]


def _seeded_quadrature(phi: TestFunction, kernel, rel_tol: float) -> tuple[complex, float]:
    """int phi(y) kernel(y) dy by ``quadrature`` seeded with phi's graded edges: (value, estimate)."""
    return quadrature(lambda ys: kernel(ys) * phi.eval_many(ys), *phi.support(), rel_tol=rel_tol,
                      knots=_graded_edges(phi, _SEED_LEVELS), vectorized=True)


def _gf_moments(phi: TestFunction, k: int, ns, weights) -> complex:
    """sum_n weight_n sum_{l=0}^{k-2} (k-2)!/l! (4 pi n)^{1-k+l} int e^{-2 pi n y} y^l phi(y) dy,
    one adaptive quadrature over a (nodes x n) table e^{-2 pi n y} P_n(y),
    with P_n the polynomial in y."""
    ns = np.asarray(ns, dtype=float)
    ls = np.arange(k - 1)
    inv_fact = np.array([math.factorial(k - 2) / math.factorial(l) for l in ls])
    coef = inv_fact[:, None] * np.power.outer(4.0 * math.pi * ns, 1.0 - k + ls).T

    def kernel(ys):
        table = _exp_normal(-_TWO_PI * np.outer(ys, ns)) * _matmul(np.power.outer(ys, ls), coef)
        return _matmul(table, weights)

    return _seeded_quadrature(phi, kernel, 1e-13)[0]


def mf_term_check(
    n: int, k: int, N: int, phi: TestFunction, tol: float = 1e-6
) -> IdentityReport:
    """Bessel-double-integral versus Whittaker closed form of the W_N-side kernel.

    Left: (8 pi n)^{(1-k)/2} N^{-1} sum_l 2^{l+1} (k-2)!/l!
          int phi(y) y^{k-2-l} int_0^inf u^{2-k+2l} J_{k-1}(sqrt(8 pi n) u)
          e^{-u^2/y} du dy.
    Right: (8 pi n)^{-k/2} (N (k-1))^{-1} sum_l 2^{l+1}
           int phi(y) y^{k/2-1} e^{-pi n y} M_{1-k/2+l, (k-1)/2}(2 pi n y) dy.
    The Whittaker normalization is pinned by the k = 2 case, where both
    kernels reduce to (4 pi n N)^{-1} int phi (1 - e^{-2 pi n y}) dy; an
    alternative normalization carrying an extra (8 pi n)^{-1/2} is
    inconsistent with that reduction (see the regression test).

    The kernels are computed independently: on the left the k - 1 inner
    u-integrals are the columns of one product e^{-u^2/y} @ kernels on the
    Gauss panels of ``_bessel_nodes``, on the right the Whittaker series of
    ``_whittaker_side``.  Both sides integrate over y by the same adaptive
    rule, seeded with phi's graded edges.  The identity holds pointwise in
    y, so a shared y-rule cancels only y-quadrature error, which is no part
    of the identity.
    """
    if k < 2 or k % 2 != 0 or n < 1 or N < 1:
        raise DomainError("mf term check needs even k >= 2, n >= 1, N >= 1")
    hi = phi.support()[1]
    us, ws = _bessel_nodes(n, hi)
    ls = np.arange(k - 1)
    bessel = ws * bessel_J_grid(k - 1, math.sqrt(8.0 * math.pi * n) * us)
    kern = bessel[:, None] * np.power.outer(us, 2.0 - k + 2 * ls)
    fact = math.factorial(k - 2)
    coef = np.array([2.0 ** (l + 1) * fact / math.factorial(l) for l in ls])

    def outer(ys):
        inner = np.empty((len(ys), len(ls)))
        rows = max(1, _CHUNK // len(us))  # bounds the table e^{-u^2/y}
        for i in range(0, len(ys), rows):
            inner[i:i + rows] = _matmul(_exp_normal(-np.outer(1.0 / ys[i:i + rows], us ** 2)), kern)
        return _matmul(inner * np.power.outer(ys, k - 2.0 - ls), coef)

    ov, _ = _seeded_quadrature(phi, outer, 1e-11)
    lhs = float(np.real(ov)) * (8.0 * math.pi * n) ** (0.5 * (1 - k)) / N
    rhs = float(np.real(_whittaker_side(phi, k, n)[0])) / N
    return IdentityReport.build(lhs, rhs, tol, f"mf term n={n} k={k} N={N}")


def _bessel_nodes(n: int, y_max: float, order: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights in u of ``mf_term_check``'s inner integrals
    int_0^inf u^p J_{k-1}(sqrt(8 pi n) u) e^{-u^2/y} du, y <= y_max: Gauss-
    Legendre panels of half a Bessel period, ``order`` points a panel (12
    reach the rounding floor; the tests pin them against 32), up to a
    cutoff that overshoots the Gaussian so the u^{k-2} growth cannot bite."""
    beta = math.sqrt(8.0 * math.pi * n)
    u_max = math.sqrt(80.0 * y_max) + 2.0 / beta
    panel = min(math.pi / beta, u_max / 8.0)
    edges = np.minimum(np.arange(int(math.ceil(u_max / panel)) + 1) * panel, u_max)
    xg, wg = _leggauss(order)
    h = 0.5 * np.diff(edges)[:, None]
    return (0.5 * (edges[:-1, None] + edges[1:, None]) + h * xg).ravel(), (h * wg).ravel()


def _whittaker_side(phi: TestFunction, k: int, n: int) -> tuple[complex, float]:
    """The Whittaker kernel of the W_N side, without its 1/N:
    (8 pi n)^{-k/2} (k-1)^{-1} sum_l 2^{l+1}
        int phi(y) y^{k/2-1} e^{-pi n y} M_{1-k/2+l, (k-1)/2}(2 pi n y) dy.

    The k - 1 kernels are one positive series (``_whittaker_kernel``),
    integrated by ``_seeded_quadrature`` (rel_tol 1e-12), the rule and seed
    of the Bessel side of ``mf_term_check``.  Returns (value, quadrature
    estimate); ``RangeOverflowError`` past 2 pi n y ~ 1420.
    """
    def kernel(ys):
        m = _whittaker_kernel(k, _TWO_PI * n * ys)
        return ys ** (0.5 * k - 1.0) * np.exp(-math.pi * n * ys) * m

    value, est = _seeded_quadrature(phi, kernel, 1e-12)
    scale = (8.0 * math.pi * n) ** (-0.5 * k) / (k - 1)
    return value * scale, est * scale


def decomp_identity_check(
    g: FormData, a_f: dict[int, complex], phi: TestFunction, tol: float = 1e-9
) -> IdentityReport:
    """Shadow-consistent decomposition of the L-series of g.

    With c_g^-(-n) = -conj(a_f(n)) (4 pi n)^{1-k}, the full L-series of g
    splits as L_g(phi) = L_g^+(phi)
        - conj( sum_n a_f(n) (4 pi n)^{1-k}
                int Gamma(k-1, 4 pi n y) e^{2 pi n y} phi(y) dy ),
    an identity independent of any modularity (phi real-valued).  The sum
    over n is one adaptive quadrature (``_gamma_moment``).
    """
    k = 2 - g.weight2 // 2
    lhs = lseries_series(g, phi).value
    g_plus = replace(g, b={}, label=f"{g.label}+")
    rhs = lseries_series(g_plus, phi).value
    cs = 4.0 * math.pi * np.array(sorted(a_f), dtype=float)
    weights = np.array([a_f[n] for n in sorted(a_f)], dtype=complex) * cs ** (1 - k)
    rhs = rhs - np.conj(_gamma_moment(phi, k, cs, weights))
    return IdentityReport.build(lhs, rhs, tol, "decomposition")


@dataclass(frozen=True, slots=True)
class SummationReport(IdentityReport):
    """The summation formula's residual, with the two parts of its left side
    and the number of right-side terms."""

    lhs_parts: tuple[complex, complex] = (0j, 0j)
    rhs_n_terms: int = 0


def summation_residual(
    f: FormData,
    g_plus: dict[int, complex],
    gW_plus: dict[int, complex],
    phi: TestFunction,
    tol: float = 1e-8,
) -> SummationReport:
    """Summation formula for the holomorphic part of a harmonic lift.

    LHS = sum_n c_g^+(n) int phi(y) e^{-2 pi n y} dy
        - N^{k/2-1} sum_n c_{g|W}^+(n) int phi(y) (-iy)^{k-2} e^{-2 pi n/(N y)} dy,
    RHS = sum_{l,n} conj(a_f(n)) [ gf term + Whittaker term ], with the
    Whittaker prefactor carrying the corrected power (8 pi n)^{-k/2}.
    Exact when g is a genuine harmonic Maass form with shadow f and
    g|_{2-k} W_N has holomorphic coefficients gW_plus.
    """
    if f.weight2 % 2 != 0:
        raise DomainError("summation formula stated for even integral weight")
    k = f.weight2 // 2
    if k < 2 or k % 2 != 0:
        raise DomainError("summation formula needs even k >= 2")
    N = f.level

    def transform_sum(coeffs: dict[int, complex], test: TestFunction) -> complex:
        """sum_n coeffs[n] (L test)(2 pi n)"""
        items = sorted(coeffs.items())
        cs = np.array([c for _, c in items], dtype=complex)
        ns = np.array([n for n, _ in items])
        table = laplace_lattice(test, ns, _TWO_PI)
        return _weighted_transform_sums([(test, cs, ns, table, None)], 1)[0][0]

    part1 = transform_sum(g_plus, phi)
    # int phi(y) (-iy)^{k-2} e^{-2 pi n/(N y)} dy
    #   = (-i)^{k-2} N (L (phi|_k W_N))(2 pi n)   via y -> 1/(N x)
    part2 = transform_sum(gW_plus, slash_W(phi, float(k), N)) * ((-1j) ** (k - 2) * N)
    lhs = part1 - float(N) ** (0.5 * k - 1.0) * part2

    terms = [(n, av) for n, av in sorted(f.a.items()) if n >= 1 and av != 0]
    weights = np.conj([av for _, av in terms])
    rhs = _gf_moments(phi, k, [n for n, _ in terms], weights)
    rhs += sum((w * _whittaker_side(phi, k, n)[0] for (n, _), w in zip(terms, weights)), 0j)
    return SummationReport.build(
        lhs, rhs, tol, "summation formula",
        lhs_parts=(complex(part1), complex(part2)), rhs_n_terms=len(terms),
    )
