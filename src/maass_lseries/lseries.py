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
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError, MembershipError
from .form import FormData, RuleCoeffs, _hol_tail, delta_k_iy, eval_iy, geom_tail, twist
from .specials import Character, _gamma_half_exp, _principal_pow, i_pow, upper_gamma
from .testfn import (
    _CHUNK,
    _G_W,
    _GK_NODES,
    _GK_W,
    TestFunction,
    _columns,
    _exp_normal,
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


@dataclass(frozen=True)
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

    The nonholomorphic terms are computed through the t-integral of the
    shifted Laplace transform and cross-validated against the equivalent
    incomplete-gamma y-integral; disagreement beyond the combined error
    budget raises AccuracyError.

    - Both b-routes come from one sampling of phi on the transform grid
      (``_nonhol_part``): one incomplete-gamma table over b-terms x nodes,
      and a fixed Gauss-Kronrod rule in tau = 4 pi m c1 t / M shared by
      every term.  The t-route's estimate is the panels' |Kronrod - Gauss|,
      a certified tail bound and the transforms' rounding column; the
      routes must agree within 1e-12 of the terms' absolute mass plus ten
      times both estimates.  Sharing the samples, the check covers the
      t-integral only; the x-grid's own error is in neither estimate.
    """
    return _series_pair(f, phi, delta=False)[0]


def lseries_delta(f: FormData, phi: TestFunction) -> LValue:
    """L_{delta_k f}(phi) by the renormalized-derivative series."""
    return _series_pair(f, phi, delta=True)[1]


def _series_pair(
    f: FormData,
    phi: TestFunction,
    delta: bool,
    coeff_err: np.ndarray | None = None,
) -> tuple[LValue, LValue | None]:
    """L_f(phi) and, with ``delta``, L_{delta_k f}(phi) in one transform pass.

    The delta_k series is (k/2) L_f(phi) - (2 pi / M) sum n a(n) (L phi_2)(2 pi n / M)
    plus its nonholomorphic part, so the plain value is computed once and
    phi and phi_2 = phi x share one transform table.  ``coeff_err`` bounds
    the absolute error of each stored a(n), aligned with ``f._arrays("a")``;
    its image sum coeff_err |(L phi)(2 pi n / M)| joins the quadrature budget.

    The tails past the stored range are taken once, up front: a tail that
    is not finite means the envelope cannot certify the series, and raises
    ``MembershipError`` before any transform is built (as does a phi
    without compact support, in ``_phi_mass``).

    Within the stored range each series sums only what its budget can see.
    A term n > 0 has the bound b_n = |a(n)| K e^{-alpha n} (n times that,
    with K2, in the delta_k series), and is summed when b_n exceeds
    rho sum b, rho = 1e-3 eps_ld / len(ns).  The bounds of the terms left
    out join that value's ``trunc_err``; they add up to about 1e-3 of
    the smallest rounding budget the long-double escalation can report.
    Their coefficients' errors, coeff_err K e^{-alpha n}, join its
    quadrature budget like those of the terms summed.  The choice does not
    read ``coeff_err``, so a twist sums the terms its series sums.  n = 0,
    the negative indices and the b-part are always summed.
    """
    c1, _, K, K2 = _phi_mass(phi)
    alpha = _TWO_PI * c1 / f.period
    step = _TWO_PI / f.period
    # the a- and b-tails of the plain series, then of the delta_k series,
    # whose envelope carries an extra factor n (phi's mass K2 is that of phi x)
    tails = (_hol_tail(f, alpha, mass=K), _nonhol_series_tail(f, c1))
    if delta:
        tails += (_hol_tail(f, alpha, 1.0, K2), _nonhol_series_tail(f, c1, 1.0))
    if not all(map(math.isfinite, tails)):
        raise MembershipError(f"membership series for {phi.label!r} not certifiably convergent")
    phi2 = shift_s(phi, 2.0)
    ns, avals = f._arrays("a")
    neg = ns < 0
    # each series sums its terms n > 0 that its budget can see, and charges
    # the others' bounds to its truncation
    keep, skipped, skipped_err = _mass_cut(ns, np.abs(avals), alpha, coeff_err)
    plain = keep[0] | (ns == 0)
    deriv = keep[1] if delta else np.zeros_like(plain)
    table = plain | deriv
    if np.any(table):
        lv, le = laplace_lattice((phi, phi2) if delta else (phi,), ns[table], step)

    def tabulated(row, mask, coeffs, test, err):
        sub = mask[table]
        return _weighted_transform_sum(
            coeffs, test, ns[mask], f.period, (lv[row][sub], le[row][sub]), err
        )

    value, quad = 0.0 + 0.0j, 0.0
    if np.any(plain):
        err = None if coeff_err is None else coeff_err[plain]
        value, quad = tabulated(0, plain, avals[plain], phi, err)
    if np.any(neg):
        # growing exponentials: the direct path, one grid for phi and phi_2
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
        # the routes share phi's samples but take the t-integral apart: a
        # tau-rule against the closed-form incomplete gamma
        allowed = _ROUTE_AGREEMENT * part.mass + 10.0 * (part.t_err + part.y_err)
        if not abs(part.t - part.y) <= allowed:
            raise AccuracyError(
                f"nonholomorphic term cross-check failed: {part.t} vs {part.y}",
                best=part.t,
            )
        value += part.t
        quad += part.t_err
        trunc += tails[1]
        n_terms += len(f.b)
    base = LValue(value, trunc, quad, n_terms, "series")
    if not delta:
        return base, None

    k = f.k
    value = 0.5 * k * base.value
    quad = abs(0.5 * k) * base.quad_err
    trunc = abs(0.5 * k) * base.trunc_err
    if np.any(deriv):
        nf = ns[deriv].astype(float)
        err = None if coeff_err is None else coeff_err[deriv] * nf
        v, q = tabulated(1, deriv, avals[deriv] * nf, phi2, err)
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
        value += part.delta_t
        quad += part.delta_t_err
        trunc += tails[3]
    n_terms = int(np.count_nonzero(deriv | neg)) + len(f.b)
    return base, LValue(value, trunc, quad, n_terms, "series")


_ROW_N = np.array([[0.0], [1.0]])  # log n times this weights row 1 by n


def _mass_cut(ns: np.ndarray, mags: np.ndarray, alpha: float, errs: np.ndarray | None):
    """The cut of the plain series (row 0, bounds b_n = mags_n e^{-alpha n}
    times a constant) and of the delta_k series (row 1, bounds n b_n): the
    terms n > 0 whose bound exceeds rho sum b, rho = 1e-3 eps_ld / len(ns),
    as a mask over ns; the sum of the other terms' bounds; and the sum of
    errs_n e^{-alpha n} (n times that in row 1) over those.  The rule is
    relative, so it does not change when every mags_n is scaled; it works
    in logarithms, so no b_n underflows on the way."""
    keep = np.zeros((2, len(ns)), dtype=bool)
    skipped = np.zeros(2)
    pos = ns > 0
    live = pos & (mags > 0)
    if live.any():
        n = ns[live]
        log_b = (np.log(mags[live]) - alpha * n) + _ROW_N * np.log(n)
        top = log_b.max(axis=1, keepdims=True)
        rel = np.exp(log_b - top)
        summed = rel > (1e-3 * _EPS_LD / len(ns)) * rel.sum(axis=1, keepdims=True)
        keep[:, live] = summed
        skipped = np.exp(top[:, 0]) * (rel * ~summed).sum(axis=1)
    if errs is None:
        return keep, skipped.tolist(), [0.0, 0.0]
    out = pos & (errs > 0)
    n = ns[out]
    charge = np.exp((np.log(errs[out]) - alpha * n) + _ROW_N * np.log(n))
    return keep, skipped.tolist(), (charge * ~keep[:, out]).sum(axis=1).tolist()


_CANCEL_ESCALATE = 3e3
_PI_LD = 4 * np.arctan(np.longdouble(1.0))
_EPS_LD = float(np.finfo(np.longdouble).eps)


def _weighted_transform_sum(
    coeffs: np.ndarray,
    phi: TestFunction,
    ns: np.ndarray,
    period: int,
    table: tuple[np.ndarray, np.ndarray] | None = None,
    coeff_err: np.ndarray | None = None,
):
    """sum_n coeffs[n] (L phi)(2 pi n / period), escalating precision.

    ``table`` holds the float64 transform values and errors at these
    frequencies when the caller has them already.  When the float64 sum
    cancels by more than ~3e3, the terms whose float64 error bound
    |coeffs[n]| err_n exceeds eps_ld * sum|terms| / len(ns) are recomputed
    in x87 long double (the transforms, their frequencies 2 pi n / period
    and the products), and every term is summed in complex long double.
    That pushes the noise floor down by three orders of magnitude; the
    float64 bounds of the terms kept stay in the budget, and together they
    are at most eps_ld * sum|terms|.  Exact for integer coefficient data
    stored in complex128 (the cast to complex long double is lossless).
    ``coeff_err`` bounds the error of each coefficient and adds its image
    to the budget.
    """
    if table is None:
        table = laplace_lattice(phi, ns, _TWO_PI / period)
    lv, le = table
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
    if cancel > _CANCEL_ESCALATE and _longdouble_capable(phi):
        redo = errs > _EPS_LD * mass / len(ns)
        terms2 = terms.astype(np.clongdouble)
        quad = float(np.sum(errs[~redo])) + _EPS_LD * mass * 10.0
        if np.any(redo):
            us_ld = ns[redo].astype(np.longdouble) * (2 * _PI_LD / np.longdouble(period))
            lv2, le2 = laplace_many(phi, us_ld, dtype=np.longdouble)
            terms2[redo] = coeffs[redo].astype(np.clongdouble) * lv2.astype(np.clongdouble)
            quad += float(np.sum(np.abs(coeffs[redo]) * le2.astype(float)))
        ssum = complex(np.sum(terms2))
    else:
        quad = float(np.sum(errs)) + 1e-16 * mass
    return ssum, quad + storage_noise


def _longdouble_capable(phi: TestFunction) -> bool:
    from .testfn import _Bump, _Spline

    return isinstance(phi.base, (_Bump, _Spline)) and all(
        op[0] == "slash" or complex(op[1]).imag == 0.0 for op in phi.ops
    )


@dataclass(frozen=True)
class _NonholPart:
    """The b-part of the series by its two routes, from one grid.

    ``t`` is the t-integral route, ``y`` the incomplete-gamma route, each
    with its error estimate; ``mass`` is the terms' absolute mass
    sum |b(n)| int |Gamma(1-k, -4 pi n y / M) e^{-2 pi n y / M} phi(y)| dy;
    ``delta_t`` is the b-part of the delta_k series (t-route), when asked.
    """

    t: complex
    t_err: float
    y: complex
    y_err: float
    mass: float
    delta_t: complex = 0j
    delta_t_err: float = 0.0


# the two b-routes may differ by this much of the terms' absolute mass,
# besides ten times their error estimates (they agree to ~1e-15 on g)
_ROUTE_AGREEMENT = 1e-12
_TAU_TAIL = 1e-17  # tail of the tau-rule, relative to its integral's scale
_TAU_GAUSS = 1e3  # z^14 at the peak, z = half the panel width times the rate
_TAU_ZMAX = 8.0


def _tau_tail(T: float, s: np.ndarray, p: float) -> np.ndarray:
    """A bound on int_T^inf e^{-tau} (1 + tau/s)^p d tau, for each s > 0.

    With p <= 0 the power is at most (1 + T/s)^p past T.  With p > 0,
    ((s + tau)/(s + T))^p <= e^{p (tau - T)/(s + T)}, so the tail is at most
    e^{-T} (1 + T/s)^p / (1 - p/(s + T)) once p < s + T (inf before).
    """
    shrink = 1.0 - max(p, 0.0) / (s + T)
    with np.errstate(over="ignore", divide="ignore"):
        bound = np.exp(-T + p * np.log1p(T / s)) / shrink
    return np.where(shrink > 0.0, bound, np.inf)


def _tau_rule(s: np.ndarray, p: float, ratio: float):
    """A composite GK15 rule for int_0^inf g(tau) (1 + tau/s)^p d tau, where
    g is a sum of e^{-tau x / c1} over x / c1 in [1, ratio].

    A panel at a has width 2 z / rho, with rho = ratio + |p| / (min s + a)
    the integrand's local rate of change, and z = (_TAU_GAUSS / env)^{1/14},
    at most _TAU_ZMAX, where env <= 1 is the envelope e^{-a} (1 + a/s)^p
    over its maximum: the 7-point Gauss error grows like z^14 times what
    the panel holds, so panels widen where the integrand has decayed.  The
    rule ends at the first edge T where every s has ``_tau_tail(T, s, p)``
    below ``_TAU_TAIL`` / (ratio + max(-p, 0) / s), the last factor a lower
    bound on the scale of its integral (with every x at ratio c1).  Returns
    the nodes, the Kronrod and the Gauss weights (zero at the Kronrod-only
    nodes) and T.
    """
    target = _TAU_TAIL / (ratio + max(-p, 0.0) / s)
    s_min = float(np.min(s))
    peak = np.maximum(p - s, 0.0)  # where e^{-tau} (1 + tau/s)^p is largest
    log_peak = -peak + p * np.log1p(peak / s)
    edges = [0.0]
    while np.any(_tau_tail(edges[-1], s, p) > target):
        a = edges[-1]
        log_env = float(np.max(-a + p * np.log1p(a / s) - log_peak))
        z = min(_TAU_ZMAX, math.exp((math.log(_TAU_GAUSS) - log_env) / 14.0))
        edges.append(a + 2.0 * z / (ratio + abs(p) / (s_min + a)))
    edges = np.array(edges)
    h = 0.5 * np.diff(edges)[:, None]
    tau = (0.5 * (edges[:-1, None] + edges[1:, None]) + h * _GK_NODES).ravel()
    return tau, (h * _GK_W).ravel(), (h * _G_W).ravel(), float(edges[-1])


def _nonhol_part(f: FormData, phi: TestFunction, delta: bool = False) -> _NonholPart:
    """The b-part of the series, both routes, on one sampling of phi.

    phi, phi_{2-k} (and phi_{3-k} with ``delta``) are sampled once on the
    graded grid of ``laplace_many``.  With m = -n > 0 and lambda = 2 pi m / M
    the y-route is ``_gamma_route`` and the t-route, after the substitution
    tau = 2 lambda c1 t, is ``_tau_route`` over the nodes of ``_tau_rule``.

    Both routes read the same samples, so neither estimate counts the error
    of the x-grid itself (as with the a-part's ``laplace_many``), and their
    cross-check tests only how the t-integral is taken: the tau-rule
    against the closed-form incomplete gamma.
    """
    bns, bvals = f._arrays("b")
    if not len(bns):
        return _NonholPart(0j, 0.0, 0j, 0.0, 0.0)
    lo, hi = phi.support()
    if not (lo > 0 and np.isfinite(hi)):
        raise DomainError("the nonholomorphic terms need compact support in (0, inf)")
    k = f.k
    lam = _TWO_PI * -bns.astype(float) / f.period
    rule = _tau_rule(2.0 * lam * lo, -k, hi / lo)
    phis = (phi, shift_s(phi, 2.0 - k)) + ((shift_s(phi, 3.0 - k),) if delta else ())
    u_max = np.max(lam) + rule[-1] / lo  # the t-route's largest frequency
    x, wf = _sampled_grid(phis, np.array([u_max]), np.float64)
    y_terms, y_mass, y_err = _gamma_route(lam, k, x, wf[:, 0])
    t_int, t_err = _tau_route(x, wf[:, 1:], lam, lo, -k, rule)
    nm = len(lam)
    pref = bvals * (2.0 * lam) ** (1.0 - k)  # b(n) (-4 pi n / M)^{1-k}
    absb = np.abs(bvals)
    part = _NonholPart(
        complex(np.sum(pref * t_int[:nm])),
        float(np.sum(np.abs(pref) * t_err[:nm])),
        complex(np.sum(bvals * y_terms)),
        float(np.sum(absb * y_err)),
        float(np.sum(absb * y_mass)),
    )
    if delta:
        pref = pref * lam  # the delta_k weight -2 pi n / M
        part = replace(
            part,
            delta_t=complex(np.sum(pref * t_int[nm:])),
            delta_t_err=float(np.sum(np.abs(pref) * t_err[nm:])),
        )
    return part


def _gamma_route(lam: np.ndarray, k: float, x: np.ndarray, w_phi: np.ndarray):
    """sum_x w phi(x) Gamma(1-k, 2 lambda x) e^{lambda x} for every lambda,
    from one table of the scaled incomplete gamma.

    Returns the sums, their absolute masses and their error estimates: the
    rounding of the gamma values and of the sums (50 eps of the mass) and
    that of the argument 2 lambda x, relative to it, in e^{-lambda x}.
    """
    gam = _gamma_half_exp(1.0 - k, np.multiply.outer(2.0 * lam, x))
    mag = np.abs(gam)
    aw = np.abs(w_phi)
    mass = mag @ aw
    return gam @ w_phi, mass, _EPS * (50.0 * mass + 4.0 * lam * (mag @ (x * aw)))


def _tau_route(x, samples, lam, c1: float, p: float, rule):
    """int_0^inf sum_x A(x) e^{-tau x / c1} (1 + tau/s)^p d tau / s, where
    A = samples e^{-lambda x} and s = 2 lambda c1, for every lambda and
    sample column (the columns' lambdas vary fastest).

    This is int_0^inf (L phi_{2-k})(lambda (2t + 1)) (1 + t)^{-k} dt with
    tau = s t when the column holds w phi_{2-k}.  The exponentials
    e^{-tau x / c1} are shared by every column and built a few panels of
    ``rule`` at a time, so no table exceeds ``_CHUNK`` entries.  The
    value takes the Kronrod weights.  The error estimate adds, per column,
    sum over panels |Kronrod - Gauss|, the rounding columns of ``_split``
    under the same weights, and the tail past the rule's end T, at most
    sum |A| int_T^inf e^{-tau} (1 + tau/s)^p d tau since x >= c1.
    """
    tau, wk, wg, T = rule
    tiny = np.finfo(np.float64).tiny
    nlam = len(lam)
    ncol = samples.shape[1] * nlam
    # the distinct sample columns times e^{-lambda x}; logical column (c, lambda)
    # of the product is its column (idx[c], lambda)
    dist, idx = _columns(x, samples)
    table = _exp_normal(np.multiply.outer(x, -lam))[:, None, :] * dist[:, :, None]
    table = table.reshape(len(x), -1)
    table[np.abs(table) < tiny] = 0.0  # no subnormal enters the products
    idx = (idx[:, None] * nlam + np.arange(nlam)).ravel()
    lam_c = np.tile(lam, samples.shape[1])
    s_c = 2.0 * c1 * lam_c
    lost = np.repeat(samples, nlam, axis=1)  # bounds what fell below tiny
    acc = np.zeros(ncol, dtype=table.dtype)
    err = np.zeros(ncol)
    kg = np.zeros(ncol)
    wd = wk - wg
    rows = 15 * max(1, _CHUNK // (15 * len(x)))  # whole panels per chunk
    buf = np.empty((rows, len(x)))
    for i in range(0, len(tau), rows):
        tc = tau[i:i + rows]
        B = _exp_normal(np.multiply.outer(tc, -x / c1, out=buf[:len(tc)]))
        vals, errs = _split(B @ table, idx, lam_c[:, None] + tc / c1, x, lost, tiny, False)
        power = (1.0 + tc / s_c[:, None]) ** p
        vals *= power
        acc += vals @ wk[i:i + rows]
        err += (errs * power) @ wk[i:i + rows]
        kg += np.sum(np.abs((vals * wd[i:i + rows]).reshape(ncol, -1, 15).sum(axis=2)), axis=1)
    mass = np.sum(np.abs(table), axis=0)[idx[:ncol]] + tiny * np.sum(np.abs(lost), axis=0)
    return acc / s_c, (kg + err + mass * _tau_tail(T, s_c, p)) / s_c


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
    would test nothing.
    """
    lo, hi = phi.support()
    lo = max(lo, lo_min)
    if not (lo > 0 and np.isfinite(hi)):
        raise DomainError("integral route requires compact support")
    eval_tol = tol / max(hi - lo, 1e-12)

    def integrand(ys):
        return evaluate(f, ys, eval_tol) * phi.eval_many(ys)

    value, qerr = quadrature(
        integrand, lo, hi, rel_tol=1e-13, knots=phi.knots(), vectorized=True
    )
    return LValue(value, tol, qerr, len(f.a) + len(f.b), "integral")


def lseries_twisted(
    f: FormData,
    chi: Character,
    phi: TestFunction,
    delta: bool = False,
) -> LValue:
    """L_{f_chi}(phi) (or the delta_k analogue), by delegation to the twist."""
    return _twisted_pair(f, chi, phi, delta)[delta]


def _twisted_pair(
    f: FormData, chi: Character, phi: TestFunction, delta: bool = True
) -> tuple[LValue, LValue | None]:
    """``_series_pair`` of f_chi, with the rounding of its coefficients charged.

    Each Gauss sum tau(n) adds D terms of modulus at most 1, so the stored
    a(n) tau(n) is off by at most 2 D eps |a(n)|.  That is the budget that
    keeps an identically vanishing twist from reading as a reliable failure.
    At D = 1 the Gauss sum is exactly 1, so the twist leaves every a(n) as
    it is and nothing is charged.
    """
    rounding = None
    if chi.modulus > 1:
        rounding = (2.0 * chi.modulus * _EPS) * np.abs(f._arrays("a")[1])
    return _series_pair(twist(f, chi), phi, delta, rounding)


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
