"""Test-function L-series of harmonic Maass forms.

The central object is the pairing

    L_f(phi) = sum_{n >= -n0} a(n) (L phi)(2 pi n / M)
             + sum_{n < 0} b(n) (-4 pi n / M)^{1-k}
                  int_0^inf (L phi_{2-k})(-2 pi n (2t+1)/M) (1+t)^{-k} dt,

together with its integral representation int_0^inf f(iy) phi(y) dy, the
delta_k variant, Dirichlet twists, the one-parameter family L(s, f, phi) =
L_f(phi_s) evaluated through its split-integral continuation, the
incomplete-gamma regularized series of weakly holomorphic forms, and
classical Dirichlet-series values.

Every returned value carries its truncation tail bound and quadrature
estimate separately; nothing is folded silently into the value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, MembershipError
from .form import FormData, RuleCoeffs, _hol_tail, delta_k_iy, eval_iy, geom_tail, twist
from .specials import Character, _gamma_half_exp, _matmul, _principal_pow, i_pow, upper_gamma
from .testfn import (
    _SEED_LEVELS,
    TestFunction,
    _exp_normal,
    _graded_edges,
    _sampled_grid,
    _split,
    laplace_lattice,
    laplace_many,
    quadrature,
    shift_s,
    slash_W,
)

_TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True, slots=True)
class LValue:
    """An L-series value with its error budget."""

    value: complex
    trunc_err: float
    quad_err: float
    n_terms: int
    method: str

    def __complex__(self):
        return complex(self.value)


@lru_cache(maxsize=256)
def _phi_mass(phi: TestFunction) -> tuple[float, float, float, float]:
    """(c1, c2, K, K2) with |(L phi)(u)| <= K e^{-u c1} for u >= 0.

    K is the L1 mass of |phi| over its support, estimated on a dense grid
    (sup sampling times width); adequate for tail certificates at desk
    scale.  K2 is the same estimate for phi x, from the same samples.
    Cached: a sweep asks for the same few test functions on every side.
    """
    lo, hi = phi.support()
    if not (lo >= 0 and np.isfinite(hi)):
        raise MembershipError("membership certificates need compact support")
    xs = np.linspace(lo, hi, 4001)[1:-1]
    mags = np.abs(phi.eval_many(xs))
    pad = 1.05 * (hi - lo)
    return lo, hi, pad * float(np.max(mags)), pad * float(np.max(mags * xs))


def series_membership(f: FormData, phi: TestFunction, for_delta: bool = False) -> float:
    """Absolute-value variant of the defining series, with tail certificate.

    Computes a finite upper bound for the membership sum that must converge
    for phi to lie in the admissible space of f (or of delta_k f), using
    |(L|phi|)(u)| <= K e^{-u c1} for u >= 0 and <= K e^{|u| c2} for u < 0
    on the compact support [c1, c2].  Raises MembershipError when the
    envelope cannot certify a finite tail (e.g. non-compact test functions
    against exponentially growing coefficients).
    """
    if not phi.is_compact:
        lo, hi = phi.support()
        finite_width = np.isfinite(hi)
        if f.exhaustive and ((all(n > 0 for n in f.a) and len(f.b) == 0) or finite_width):
            return math.inf  # finitely many terms, each individually finite
        raise MembershipError(
            f"{phi.label!r} is not compactly supported in (0, inf); the "
            "coefficient growth envelope cannot certify convergence"
        )
    c1, c2, K, _ = _phi_mass(phi)
    alpha = _TWO_PI * c1 / f.period
    pw = 1.0 if for_delta else 0.0
    hol_tail = _hol_tail(f, alpha, pw, K)
    nonhol_tail = _nonhol_series_tail(f, c1, pw)
    if not (np.isfinite(hol_tail) and np.isfinite(nonhol_tail)):
        raise MembershipError(
            f"membership series for {phi.label!r} not certifiably convergent"
        )
    ns, avals = f._arrays("a")
    acc = 0.0
    if len(ns):
        nf = ns.astype(float)
        env = np.where(nf >= 0, np.exp(-alpha * nf), np.exp(_TWO_PI * c2 / f.period * -nf))
        acc += float(np.sum(np.abs(avals) * K * env))
    return acc + hol_tail + nonhol_tail


def _nonhol_series_tail(f: FormData, c1: float, extra_poly: float = 0.0) -> float:
    """Tail certificate for the nonholomorphic sum of the defining series."""
    if f.exhaustive or len(f.b) == 0:
        return 0.0
    ns, _ = f._arrays("b")
    m_max = int(-ns[0])
    k = f.k
    alpha = _TWO_PI * c1 / f.period
    beta1 = 2.0 * alpha * (m_max + 1)  # decay rate of the t-integrand at m_max+1
    p = -k  # net polynomial power from (4 pi n/M)^{1-k} * O(1/n) t-integral
    if beta1 < 2.0 * max(0.0, -k) + 1.0:
        return math.inf
    pref = (4.0 * math.pi / f.period) ** (1.0 - k) * 2.0 / (2.0 * alpha)
    return geom_tail(f.amplitude("b") * pref, f.growth_C, alpha, m_max, p + extra_poly)


# ----------------------------------------------------------------------------
# the two defining routes


def lseries_series(f: FormData, phi: TestFunction) -> LValue:
    """L_f(phi) by the defining coefficient-side series.

    The b-terms come from one sampling of phi (``_nonhol_part``).  At
    integral weight k <= 0, m = 1 - k is an integer, and the paper's
    t-integral of the b(n) term equals the finite moment sum
    sum_{j<m} (m-1)!/j! (2 lambda)^j (L[y^j phi])(lambda), lambda = -2 pi n / M.
    Its estimate is the transforms' error columns under these positive
    weights plus the weights' rounding.  The incomplete-gamma y-integral on
    the same samples cross-checks it: the two must agree within 1e-12 of
    the terms' absolute mass plus ten times both estimates, or
    AccuracyError is raised.  At other orders, and where the moment
    weights pass the double range, the y-route stands alone.
    """
    return _series_pair(f, phi, delta=False)[0]


def lseries_delta(f: FormData, phi: TestFunction) -> LValue:
    """L_{delta_k f}(phi) by the renormalized-derivative series."""
    return _series_pair(f, phi, delta=True)[1]


def _series_tails(f: FormData, phi: TestFunction, delta: bool) -> list[tuple[float, float]]:
    """The a- and b-tails past the stored range of each row of
    ``_series_pair``; the delta_k envelope carries an extra factor n.  A
    tail that is not finite means the envelope cannot certify the series:
    ``MembershipError`` (as for a phi without compact support, in
    ``_phi_mass``)."""
    c1, _, K, K2 = _phi_mass(phi)
    alpha = _TWO_PI * c1 / f.period
    tails = [(_hol_tail(f, alpha, r, (K, K2)[r]), _nonhol_series_tail(f, c1, r)) for r in range(1 + delta)]
    if not all(math.isfinite(t) for row in tails for t in row):
        raise MembershipError(f"membership series for {phi.label!r} not certifiably convergent")
    return tails


def _series_pair(
    f: FormData,
    phi: TestFunction,
    delta: bool,
    coeff_err: np.ndarray | None = None,
    tails: list[tuple[float, float]] | None = None,
) -> tuple[LValue, LValue | None]:
    """L_f(phi) and, with ``delta``, L_{delta_k f}(phi) in one transform pass.

    The delta_k series is (k/2) L_f(phi) - (2 pi / M) sum n a(n) (L phi_2)(2 pi n / M)
    plus its nonholomorphic part, so the plain value is computed once and
    phi and phi_2 = phi x share one transform table.  ``coeff_err`` bounds
    the absolute error of each stored a(n), aligned with ``f._arrays("a")``;
    its image sum coeff_err |(L phi)(2 pi n / M)| joins the quadrature budget.

    One loop runs over the rows r: the plain series (r = 0), then the
    delta_k series (r = 1).  Row r's terms are a(n) n^r against phi x^r,
    whose mass is K (r = 0) or K2 (``_phi_mass``); it has its own tails, its
    own row of ``_mass_cut`` and the scale 1 or -2 pi / M.  Row 1 starts
    from (k/2) times row 0's finished value and budgets.

    The tails past the stored range are ``_series_tails``, taken once, up
    front, unless the caller has taken them already: an uncertified series
    raises ``MembershipError`` before any transform is built.

    Within the stored range each series sums only what its budget can see.
    A term n > 0 has the bound b_n = |a(n)| K e^{-alpha n} (n times that,
    with K2, in the delta_k series), and is summed when b_n exceeds
    rho sum b, rho = 1e-3 2^-63 / len(ns).  The bounds of the terms left
    out join that value's ``trunc_err``; they add up to about 1e-3 of
    the smallest rounding budget the long-double escalation can report
    with x87's 2^-63 for eps.  rho is that constant on every platform, so
    which terms are summed does not depend on the platform's long double.
    Their coefficients' errors, coeff_err K e^{-alpha n}, join its
    quadrature budget like those of the terms summed.  The choice does not
    read ``coeff_err``, so a twist sums the terms its series sums.  n = 0,
    the negative indices and the b-part are always summed.
    """
    c1, _, K, K2 = _phi_mass(phi)
    alpha = _TWO_PI * c1 / f.period
    step = _TWO_PI / f.period
    rows = range(1 + delta)
    tests, mass = (phi, shift_s(phi, 2.0))[:1 + delta], (K, K2)
    if tails is None:
        tails = _series_tails(f, phi, delta)
    ns, avals = f._arrays("a")
    neg = ns < 0
    # each row sums its terms n > 0 that its budget can see, and charges
    # the others' bounds to its truncation; row 0 sums n = 0 too
    keep, skipped, skipped_err = _mass_cut(f._positive(), np.abs(avals), alpha, coeff_err)
    masks = keep[:1 + delta]
    masks[0] |= ns == 0
    table = masks.any(axis=0)
    if table.any():
        lv, le = laplace_lattice(tests, ns[table], step)
    # each row's sum over the table: its coefficients, their errors and its
    # test function, weighted on the kept terms alone
    summed = {}
    for r, m in enumerate(masks):
        if m.any():
            err = None if coeff_err is None else _times_n(coeff_err[m], ns[m], r)
            transforms = (lv[r][m[table]], le[r][m[table]])
            summed[r] = (tests[r], _times_n(avals[m], ns[m], r), ns[m], transforms, err)
    sums = dict(zip(summed, _weighted_transform_sums(list(summed.values()), f.period)))
    has_neg = neg.any()
    if has_neg:
        # growing exponentials: the direct path, one grid for every row
        nv, ne = laplace_many(tests, ns[neg] * step)
    if len(f.b):
        part = _nonhol_part(f, phi, delta)
        # the routes share phi's samples but take the y-integral apart:
        # finite moments against the closed-form incomplete gamma
        allowed = _ROUTE_AGREEMENT * part.mass + 10.0 * (part.err[0] + part.y_err)
        if not abs(part.value[0] - part.y) <= allowed:
            raise AccuracyError(
                f"nonholomorphic term cross-check failed: {part.value[0]} vs {part.y}",
                best=part.value[0],
            )
    out = []
    for r in rows:
        # row 1 scales its values by -2 pi / M and its budgets by 2 pi / M;
        # row 0's values are not multiplied by 1, which would flip the sign of
        # a zero part
        scale = step if r else 1.0
        if r == 0:
            (value, quad), trunc = sums.get(0, (0.0 + 0.0j, 0.0)), 0.0
        else:
            half, base = 0.5 * f.k, out[0]
            value, quad, trunc = half * base.value, abs(half) * base.quad_err, abs(half) * base.trunc_err
            if 1 in sums:
                value += -step * sums[1][0]
                quad += step * sums[1][1]
        if has_neg:
            weights = _times_n(avals[neg], ns[neg], r)
            v = complex(np.sum(weights * nv[r]))
            value += -step * v if r else v
            quad += scale * float(np.sum(np.abs(weights) * ne[r]))
            if coeff_err is not None:
                quad += scale * float(np.sum(coeff_err[neg] * np.abs(_times_n(nv[r], ns[neg], r))))
        quad += scale * mass[r] * skipped_err[r]
        trunc += scale * (tails[r][0] + mass[r] * skipped[r])
        if len(f.b):
            value += part.value[r]
            quad += part.err[r]
            trunc += tails[r][1]
        n_terms = int(np.count_nonzero(masks[r] | neg)) + len(f.b)
        out.append(LValue(value, trunc, quad, n_terms, "series"))
    return out[0], (out[1] if delta else None)


def _times_n(x: np.ndarray, ns: np.ndarray, r: int) -> np.ndarray:
    """x n^r: row 1's terms carry a factor n, row 0's none."""
    return x * ns if r else x


_CUT_EPS = 2.0 ** -63  # x87 long double's eps, the same on every platform


def _mass_cut(terms: tuple, mags: np.ndarray, alpha: float, errs: np.ndarray | None):
    """The cut of the plain series (row 0, bounds b_n = mags_n e^{-alpha n}
    times a constant) and of the delta_k series (row 1, bounds n b_n): the
    terms n > 0 whose bound exceeds rho sum b, rho = 1e-3 2^-63 / len(ns),
    as a mask over ns; the sum of the other terms' bounds; and the sum of
    errs_n e^{-alpha n} (n times that in row 1) over those.  ``terms`` are
    ns's positive terms (``FormData._positive``), and ``mags`` and ``errs``
    are aligned with ns.  The rule is relative, so it does not change when
    every mags_n is scaled; it works in logarithms, so no b_n underflows on
    the way."""
    count, start, n, rows = terms
    keep = np.zeros((2, count), dtype=bool)
    cut = keep[:, start:]
    skipped = np.zeros(2)
    live = mags[start:] > 0
    if live.any():
        on = slice(None) if live.all() else live
        log_b = (np.log(mags[start:][on]) - alpha * n[on]) + rows[:, on]
        top = log_b.max(axis=1, keepdims=True)
        rel = np.exp(log_b - top)
        summed = rel > (1e-3 * _CUT_EPS / count) * rel.sum(axis=1, keepdims=True)
        cut[:, on] = summed
        skipped = np.exp(top[:, 0]) * np.where(summed, 0.0, rel).sum(axis=1)
    if errs is None:
        return keep, skipped.tolist(), [0.0, 0.0]
    out = errs[start:] > 0
    on = slice(None) if out.all() else out
    charge = np.exp((np.log(errs[start:][on]) - alpha * n[on]) + rows[:, on])
    return keep, skipped.tolist(), np.where(cut[:, on], 0.0, charge).sum(axis=1).tolist()


_CANCEL_ESCALATE = 3e3
_PI_LD = 4 * np.arctan(np.longdouble(1.0))
_EPS_LD = float(np.finfo(np.longdouble).eps)


def _weighted_transform_sums(rows, period: int) -> list[tuple[complex, float]]:
    """(sum, budget) of sum_n coeffs[n] (L phi)(2 pi n / period) for each
    row (phi, coeffs, ns, table, coeff_err), escalating precision.

    ``table`` holds the float64 transform values and errors at these
    frequencies.  When a row's float64 sum cancels by more than ~3e3, the
    terms whose float64 error bound |coeffs[n]| err_n exceeds
    eps_ld * sum|terms| / len(ns) are recomputed in x87 long double (the
    transforms, their frequencies 2 pi n / period and the products), and
    every term is summed in complex long double.  The transforms come from
    one ``laplace_lattice`` call in long double over the union of the rows'
    recomputed indices, with the rows' test functions side by side (they
    share support and knots, as phi and phi x do, and one grid); its error
    column carries the (B + Q + 3) eps_ld of its running products.  That pushes the noise floor down by three
    orders of magnitude; the float64 bounds of the terms kept stay in the
    budget, and together they are at most eps_ld * sum|terms|.  Exact for
    integer coefficient data stored in complex128 (the cast to complex long
    double is lossless).  Where ``np.longdouble`` is float64 (Windows,
    Apple-silicon macOS) the escalation would rerun the same precision, so
    it is skipped and the budget is the float64 one.  ``coeff_err`` bounds
    the error of each coefficient and adds its image to the budget.
    """
    out, redo = [], []  # [sum, terms in long double or None, budget, storage noise] a row
    for phi, coeffs, ns, (lv, le), coeff_err in rows:
        terms = coeffs * lv
        ssum = complex(np.sum(terms))
        mass = float(np.sum(np.abs(terms)))
        errs = np.abs(coeffs) * le
        # coefficients beyond 2^53 were rounded when stored; that noise is
        # irreducible at any working precision
        big = np.abs(coeffs) > 2.0 ** 53
        storage_noise = 5e-16 * float(np.sum(np.abs(terms[big]))) if np.any(big) else 0.0
        if coeff_err is not None:
            storage_noise += float(np.sum(coeff_err * np.abs(lv)))
        cancel = mass / max(abs(ssum), 1e-300)
        if cancel > _CANCEL_ESCALATE and _EPS_LD < _EPS and _longdouble_capable(phi):
            redo.append(errs > _EPS_LD * mass / len(ns))
            quad = float(np.sum(errs[~redo[-1]])) + _EPS_LD * mass * 10.0
            out.append([ssum, terms.astype(np.clongdouble), quad, storage_noise])
        else:
            redo.append(np.zeros(len(ns), dtype=bool))
            out.append([ssum, None, float(np.sum(errs)) + 1e-16 * mass, storage_noise])
    escalated = [i for i, r in enumerate(redo) if r.any()]
    if escalated:
        picked = [rows[i][2][redo[i]] for i in escalated]
        union = np.sort(np.concatenate(picked))
        union = union[np.concatenate(([True], union[1:] != union[:-1]))]  # np.union1d imports numpy.ma
        step = 2 * _PI_LD / np.longdouble(period)
        lv2, le2 = laplace_lattice(tuple(rows[i][0] for i in escalated), union, step, np.longdouble)
        for i, ns_i, lv_i, le_i in zip(escalated, picked, lv2, le2):
            at = np.searchsorted(union, ns_i)
            coeffs = rows[i][1][redo[i]]
            out[i][1][redo[i]] = coeffs.astype(np.clongdouble) * lv_i[at].astype(np.clongdouble)
            out[i][2] += float(np.sum(np.abs(coeffs) * le_i[at].astype(float)))
    return [(ssum if terms is None else complex(np.sum(terms)), quad + noise)
            for ssum, terms, quad, noise in out]


def _longdouble_capable(phi: TestFunction) -> bool:
    from .testfn import _Bump, _Spline

    return isinstance(phi.base, (_Bump, _Spline)) and all(
        op[0] == "slash" or complex(op[1]).imag == 0.0 for op in phi.ops
    )


@dataclass(frozen=True)
class _NonholPart:
    """The b-part of the series from one grid.

    ``value`` holds a row's b-part, the plain series' and, when asked, the
    delta_k series': by finite moments at integer order m = 1 - k and by
    the y-route at other orders; ``err`` holds their error estimates.  ``y``
    and ``y_err`` are the y-route's plain b-part, the cross-check at
    integer m (``value[0]`` itself at other orders); ``mass`` is the terms'
    absolute mass
    sum |b(n)| int |Gamma(1-k, -4 pi n y / M) e^{-2 pi n y / M} phi(y)| dy.
    """

    value: tuple[complex, ...]
    err: tuple[float, ...]
    y: complex
    y_err: float
    mass: float


# the two b-routes may differ by this much of the terms' absolute mass,
# besides ten times their error estimates (they agree to ~1e-15 on g)
_ROUTE_AGREEMENT = 1e-12
_TINY = float(np.finfo(np.float64).tiny)


def _nonhol_part(f: FormData, phi: TestFunction, delta: bool = False) -> _NonholPart:
    """The b-part of the series on one sampling of phi.

    With lambda = -2 pi n / M and m = 1 - k, the b(n) term is
    b(n) int Gamma(m, 2 lambda y) e^{lambda y} phi(y) dy in the plain
    series and lambda times that over y phi in the delta_k series.  At
    integer m >= 1 (DLMF 8.4.8) it is the moment sum of ``_moment_route``
    over the columns phi, y phi, ..., y^{m-1} phi (and y^m phi with
    ``delta``) of one transform table, cross-checked by the y-route
    ``_gamma_route`` on the same samples; at other orders, and where the
    moment weights pass the double range, the y-route over phi and, with
    ``delta``, y phi stands alone.  Neither estimate counts the error of
    the x-grid itself (as with the a-part's ``laplace_many``).
    """
    bns, bvals = f._arrays("b")
    lo, hi = phi.support()
    if not (lo > 0 and np.isfinite(hi)):
        raise DomainError("the nonholomorphic terms need compact support in (0, inf)")
    m = 1.0 - f.k
    moments = m >= 1.0 and m == int(m)
    lam = _TWO_PI * -bns.astype(float) / f.period
    # phi y^j for j < m (moments) or j < 1, and one more column for delta_k
    cols = (int(m) if moments else 1) + delta
    x, wf, layout = _sampled_grid(tuple(shift_s(phi, j + 1.0) for j in range(cols)), lam, np.float64)
    y, y_mass, y_err = _gamma_route(lam, f.k, x, wf[:, :1 + delta])
    vals, errs = _moment_route(lam, int(m), x, wf, layout) if moments else (y, y_err)
    if not np.isfinite(errs).all():  # moment weights past the double range
        vals, errs = y, y_err
    # the terms' weights: b(n) in the plain series, b(n) lambda in delta_k's
    weights = np.stack([bvals, bvals * lam], axis=1)[:, :1 + delta]
    absb = np.abs(bvals)
    return _NonholPart(
        tuple(np.sum(weights * vals, axis=0).tolist()),
        tuple(np.sum(np.abs(weights) * errs, axis=0).tolist()),
        complex(np.sum(bvals * y[:, 0])),
        float(np.sum(absb * y_err[:, 0])),
        float(np.sum(absb * y_mass[:, 0])),
    )


def _gamma_route(lam: np.ndarray, k: float, x: np.ndarray, w_phi: np.ndarray):
    """sum_x w phi(x) Gamma(1-k, 2 lambda x) e^{lambda x} for every lambda
    and every column of ``w_phi``, from one table of the scaled incomplete
    gamma.

    Returns the (lambdas x columns) sums, their absolute masses and their
    error estimates: the rounding of the gamma values and of the sums (50
    eps of the mass) and that of the argument 2 lambda x, relative to it,
    in e^{-lambda x}.
    """
    gam = _gamma_half_exp(1.0 - k, np.multiply.outer(2.0 * lam, x))
    mag = np.abs(gam)
    aw = np.abs(w_phi)
    mass = _matmul(mag, aw)
    err = _EPS * (50.0 * mass + 4.0 * lam[:, None] * _matmul(mag, x[:, None] * aw))
    return _matmul(gam, w_phi), mass, err


def _moment_route(lam: np.ndarray, m: int, x: np.ndarray, wf: np.ndarray, layout):
    """sum_{j<m} (m-1)!/j! (2 lambda)^j (L[y^j phi])(lambda) for every
    lambda, and, when ``wf`` holds one more column, the same sum over
    y^{j+1} phi: (lambdas x 1 or 2).  ``wf`` holds the weighted samples of
    phi, y phi, y^2 phi, ... on the nodes x, each x times the one before,
    so their ``layout`` adds one column to them, and one product gives
    every transform, as in ``laplace_many``.

    The error estimate takes the transforms' error columns (``_split``)
    under the same positive weights, plus the weights' own rounding: the
    ratio (m-1)!/j! is an exact product of integers downward from j = m - 1
    (while below 2^53; past that each of its m - 1 - j products rounds),
    (2 lambda)^j carries j times lambda's rounding (1.5 eps) and that of
    the power, and the products and the sum over j add m more, so column
    j is charged (1.5 j + m + 2) eps of its term's mass.
    """
    c = wf.shape[1]
    out = _matmul(_exp_normal(np.multiply.outer(-lam, x)), layout.columns(x, wf))
    vals, errs = _split(out, layout, lam, _TINY, False)  # (columns x lambdas)
    mass = np.abs(out[:, layout.mass]).T
    j = np.arange(m)
    ratio = np.cumprod(np.r_[1.0, np.arange(m - 1.0, 0.0, -1.0)])[::-1]  # (m-1)!/j!
    rounding = ((1.5 * j + m + 2.0) * _EPS)[:, None]
    shifts = range(c - m + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # the caller tests for inf and nan
        weights = ratio[:, None] * np.power.outer(2.0 * lam, j).T
        value = [np.sum(weights * vals[s:s + m], axis=0) for s in shifts]
        err = [np.sum(weights * (errs[s:s + m] + rounding * mass[s:s + m]), axis=0) for s in shifts]
    return np.stack(value, axis=1), np.stack(err, axis=1)


def lseries_integral(f: FormData, phi: TestFunction, tol: float = 1e-12) -> LValue:
    """L_f(phi) = int_0^inf f(iy) phi(y) dy over the support of phi."""
    return _integral_route(eval_iy, f, phi, tol)


def lseries_delta_integral(f: FormData, phi: TestFunction, tol: float = 1e-12) -> LValue:
    """L_{delta_k f}(phi) = int (delta_k f)(iy) phi(y) dy (cross-check route)."""
    return _integral_route(delta_k_iy, f, phi, tol)


def _integral_route(evaluate, f: FormData, phi: TestFunction, tol: float, lo_min: float = 0.0):
    """int evaluate(f, y) phi(y) dy by adaptive quadrature over phi's
    support, cut below at ``lo_min``.

    Deliberately not on phi's transform grid: there it would be the series
    route summed in another order, and the agreement of the two routes
    would test nothing.  It shares that grid's panel edges
    (``_graded_edges``, which seed its first pass) but none of its nodes or
    weights: GK15 nodes here, Gauss-Legendre there, and its own error
    estimate decides where to refine.
    """
    lo, hi = phi.support()
    lo = max(lo, lo_min)
    if not (lo > 0 and np.isfinite(hi)):
        raise DomainError("integral route requires compact support")
    eval_tol = tol / max(hi - lo, 1e-12)

    def integrand(ys):
        return evaluate(f, ys, eval_tol) * phi.eval_many(ys)

    value, qerr = quadrature(
        integrand, lo, hi, rel_tol=1e-13, knots=_graded_edges(phi, _SEED_LEVELS), vectorized=True
    )
    return LValue(value, tol, qerr, len(f.a) + len(f.b), "integral")


def lseries_twisted(
    f: FormData,
    chi: Character,
    phi: TestFunction,
    delta: bool = False,
) -> LValue:
    """L_{f_chi}(phi) (or the delta_k analogue), by delegation to the twist,
    with the rounding of its coefficients charged."""
    ft, rounding = _twisted(f, chi)
    return _series_pair(ft, phi, delta, rounding)[delta]


def _twisted(f: FormData, chi: Character) -> tuple[FormData, np.ndarray | None]:
    """f_chi and the bound on the rounding of its a-coefficients, the
    arguments ``_series_pair`` takes for every test function: a sweep builds
    them once per (f, chi).

    Each Gauss sum tau(n) adds D terms of modulus at most 1, so the stored
    a(n) tau(n) is off by at most 2 D eps |a(n)|.  That is the budget that
    keeps an identically vanishing twist from reading as a reliable failure.
    At D = 1 the Gauss sum is exactly 1, so the twist leaves every a(n) as
    it is and nothing is charged.
    """
    rounding = None
    if chi.modulus > 1:
        rounding = (2.0 * chi.modulus * _EPS) * np.abs(f._arrays("a")[1])
    return twist(f, chi), rounding


# ----------------------------------------------------------------------------
# s-parameter family via the split integral


def lseries_s(
    f: FormData,
    phi: TestFunction,
    s: complex,
    g: FormData | None = None,
    tol: float = 1e-12,
) -> LValue:
    """L(s, f, phi) = L_f(phi_s) through the split-integral continuation.

    Both integrals run over [1/sqrt(N), inf) and converge for every complex
    s when phi is compactly supported; at s = 1 the value equals L_f(phi).
    ``g`` is the W_N companion f|_k W_N; it defaults to f itself, which is
    exact for the bundled self-dual fixtures.
    """
    if f.weight2 % 2 != 0:
        raise DomainError("the s-family continuation is stated for integral weight")
    if g is None:
        g = f
    k = f.k
    N = f.level
    s = complex(s)
    root = 1.0 / math.sqrt(N)
    phi_w = slash_W(phi, 1.0 - k, N)
    quad = 0.0
    value = 0.0 + 0.0j
    for func, test, expo, pref in (
        (g, phi_w, 1.0 - s, i_pow(int(round(k))) * N ** (-k / 2.0 + 1.0 - s)),
        (f, phi, s, 1.0 + 0.0j),
    ):
        if test.support()[1] > root:
            part = _integral_route(eval_iy, func, shift_s(test, expo), tol, root)
            value += pref * part.value
            quad += abs(pref) * part.quad_err
    return LValue(value, tol, quad, len(f.a) + len(g.a), "integral")


# ----------------------------------------------------------------------------
# incomplete-gamma regularized series of weakly holomorphic forms


def regularized_lseries(f: FormData, s: complex, t0: float) -> complex:
    """The t0-regularized L-series of a weakly holomorphic form.

    L(s, f) = sum_{n != 0} a(n) Gamma(s, 2 pi n t0) (2 pi n)^{-s}
            + i^k sum_{n != 0} a(n) Gamma(k-s, 2 pi n / t0) (2 pi n)^{s-k};
    independent of t0 > 0.  Negative-index terms go through the analytic
    continuation of the incomplete gamma and principal-branch powers.
    """
    if len(f.b):
        raise DomainError("regularized_lseries is defined for weakly holomorphic forms")
    if f.weight2 % 2 != 0:
        raise DomainError("regularized_lseries requires even integral weight")
    if f.period != 1:
        raise DomainError("regularized_lseries requires period 1")
    if t0 <= 0:
        raise DomainError("t0 must be positive")
    if 0 in f.a and f.a[0] != 0:
        raise DomainError("the regularized series excludes n = 0 (constant term present)")
    k = int(round(f.k))
    ik = i_pow(k)
    ns, avals = f._arrays("a")
    acc = 0.0 + 0.0j
    rate = _TWO_PI * min(t0, 1.0 / t0)  # decay of both gamma factors in n
    for n, av in zip(ns, avals):
        if n == 0 or av == 0:
            continue
        if n > 0 and rate * n > 800.0:
            break  # both terms far below double-precision resolution
        u = _TWO_PI * float(n)
        t1 = av * upper_gamma(s, u * t0) * _principal_pow(u, -s)
        t2 = ik * av * upper_gamma(k - s, u / t0) * _principal_pow(u, s - k)
        acc += t1 + t2
    return complex(acc)


# ----------------------------------------------------------------------------
# classical Dirichlet-series values


_DIRICHLET_CHUNK = 1 << 22  # terms of rule-backed data summed per pass
_ENVELOPE_TERMS = 4097  # of rule-backed data's first chunk, for the envelope fit


def classical_value(f: FormData, s: complex, tol: float = 1e-10) -> LValue:
    """sum_{n >= 1} a(n) n^{-s} = L_f(I_s) for holomorphic cusp data.

    The abscissa check fits a polynomial envelope |a(n)| <= A n^P, to every
    stored term or to the first ``_ENVELOPE_TERMS`` of a rule, and requires
    Re(s) > P + 1.  Stored data is one chunk; rule-backed data is read in
    chunks until the certified integral tail bound drops below ``tol`` or
    the rule range ends.  The tail left is ``trunc_err``, zero when
    exhaustive data was summed to its end.
    """
    if len(f.b) or f.n0 != 0:
        raise DomainError("classical_value requires holomorphic cusp data (b empty, n0 = 0)")
    s = complex(s)
    sig = s.real
    if not (math.isfinite(sig) and math.isfinite(s.imag)):
        raise DomainError(f"s must be finite, got {s}")
    if isinstance(f.a, RuleCoeffs):
        lo, last = f.a.n_min, f.a.n_max
        if lo < 1:
            raise DomainError("classical series starts at n = 1")

        def read(n):
            m = min(last, n + _DIRICHLET_CHUNK - 1)
            return np.arange(n, m + 1, dtype=float), f.a.eval_range(n, m)

        chunks = map(read, range(lo, last + 1, _DIRICHLET_CHUNK))
        fit = slice(_ENVELOPE_TERMS)
    else:
        ns, avals = f._arrays("a")
        pos = ns >= 1
        if not np.any(pos):
            return LValue(0.0 + 0.0j, 0.0, 0.0, 0, "series")
        last = int(ns[-1])
        chunks = [(ns[pos].astype(float), avals[pos])]
        fit = slice(None)
    acc = 0.0 + 0.0j
    terms = 0
    for ns, vals in chunks:
        if not terms:
            P, A = _poly_envelope(ns[fit], np.abs(vals[fit]))
            if sig <= P + 1.0 + 1e-9:
                raise DomainError(f"series diverges: Re(s)={sig:g} below abscissa ~{P + 1.0:g}")
        # real s: one power per term, much cheaper than a complex exponential
        powers = ns ** (-sig) if s.imag == 0 else np.exp(-s * np.log(ns))
        acc += complex(np.sum(vals * powers))
        terms += len(ns)
        n_done = int(ns[-1])
        if _dirichlet_tail(A, P, sig, n_done) <= tol:
            break
    exact = f.exhaustive and n_done == last
    return LValue(acc, 0.0 if exact else _dirichlet_tail(A, P, sig, n_done), 0.0, terms, "series")


def _poly_envelope(ns, mags):
    """(P, A) with |a(n)| <= A n^P over the sample."""
    mask = (ns >= 2) & (mags > 0)
    if not np.any(mask):
        return 0.0, float(np.max(mags, initial=1.0))
    P = float(np.max(np.log(mags[mask]) / np.log(ns[mask])))
    P = max(0.0, P)
    A = float(np.max(mags / ns.astype(float) ** P))
    return P, max(A, 1e-300)


def _dirichlet_tail(A: float, P: float, sig: float, n_done: int) -> float:
    """A * sum_{n > n_done} n^{P - sig} bounded by the integral test."""
    p = P - sig
    if p >= -1:
        return math.inf
    return A * (n_done ** (p + 1.0) / (-p - 1.0) + n_done ** p)
