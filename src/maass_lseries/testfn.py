"""Compactly supported test functions, their algebra, and quadrature.

The test-function family has three base variants: smooth bumps
exp(-1/((x-c1)(c2-x))) normalized to peak value 1, compact piecewise
polynomials (splines), and truncated powers x^{s-1} 1_{x>T}.  Two modifiers
act on them: the power twist phi_s(x) = phi(x) x^{s-1} and the involution
(phi|_a W_M)(x) = (Mx)^{-a} phi(1/(Mx)).  Laplace transforms are closed
form for truncated powers and adaptive Gauss-Kronrod quadrature otherwise.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import AccuracyError, DomainError
from .specials import _CHUNK, _matmul, _principal_pow, upper_gamma

# ----------------------------------------------------------------------------
# Gauss-Kronrod 15/7 pair (QUADPACK dqk15 constants)

_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_GK_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
# Gauss weights aligned with the 15-node layout (zeros at Kronrod-only nodes)
_G_W = np.zeros(15)
_G_W[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])
# dyadic levels of _graded_edges that seed an adaptive quadrature over a test
# function's support: 8 settle the widest battery bump in at most 3 passes
_SEED_LEVELS = 8
# In long double laplace_lattice runs while B Q (len(phis) + 1), about its
# product's terms a node, is at most this many times len(ns) - 3, the
# exponentials a node it saves (see laplace_lattice)
_LD_LATTICE = 16
# the most derived test functions (shift_s, slash_W) a test function keeps,
# dropping the oldest: an FE takes two (phi|W_N and phi x), the b-part at
# weight -10 eleven (phi y^j, j = 1..11)
_DERIVED = 16


# exp(_LOG_TINY) is normal and exp of the next double below it is subnormal
# (the tests pin both)
_LOG_TINY = math.log(np.finfo(np.float64).tiny)


def _exp_normal(arg: np.ndarray) -> np.ndarray:
    """exp(arg) in place, with 0 where it would fall below the smallest
    normal double.  No argument below that reaches ``np.exp``, so no
    subnormal is formed and no underflow taken: both are slow paths, and
    the terms they would give are below every error bound that uses this."""
    low = arg < _LOG_TINY
    np.exp(arg, out=arg, where=~low)
    arg[low] = 0.0
    return arg


def _gk15(fv, a: np.ndarray, b: np.ndarray):
    """GK15 on the panels (a[i], b[i]), all nodes in one call of ``fv``:
    returns arrays (values, err_ests, abs_masses), one entry a panel."""
    h = 0.5 * (b - a)
    xs = (0.5 * (a + b))[:, None] + h[:, None] * _GK_NODES
    ys = np.asarray(fv(xs.ravel())).reshape(xs.shape)
    vk = h * _matmul(ys, _GK_W)
    diff = np.abs(vk - h * _matmul(ys, _G_W))
    mass = h * _matmul(np.abs(ys), _GK_W)
    # QUADPACK-style damped error estimate
    asc = h * _matmul(np.abs(ys - (vk / (b - a))[:, None]), _GK_W)
    damped = (asc > 0) & (diff > 0)
    err = diff.copy()
    err[damped] = asc[damped] * np.minimum(1.0, (200.0 * diff[damped] / asc[damped]) ** 1.5)
    return vk, np.maximum(err, 50.0 * np.finfo(float).eps * mass), mass


def _as_vectorized(f, vectorized: bool):
    if vectorized:
        return f
    return lambda xs: np.array([f(float(x)) for x in xs])


def quadrature(
    f,
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    *,
    knots=(),
    decay_rate: float | None = None,
    vectorized: bool = False,
    max_subdiv: int = 4000,
):
    """Adaptive 15-point Gauss-Kronrod integration of ``f`` over (a, b).

    ``knots`` seed the initial subdivision: the first pass has one panel
    between each two neighbours among a, b and the knots inside (a, b).
    For an integrand that carries a test function phi, pass
    ``_graded_edges(phi, _SEED_LEVELS)``: phi's knots and endpoints and
    panels graded into both ends of its support, where a bump's layers
    need them, so that the refinement starts where it would end.
    For b < a the value is minus the integral over (b, a); a must be
    finite.  For b = +inf an exponential ``decay_rate`` hint is required;
    the range is truncated where the implied bound drops below the target.
    Returns ``(value, err_est)``; raises :class:`AccuracyError` with the
    best estimate if the target is unreachable within ``max_subdiv``
    subdivisions.  Convergence means
    ``err <= target = max(rel_tol |value|, 300 eps int|f|)``, the second
    term being the roundoff floor that genuinely vanishing integrals of
    oscillating integrands bottom out at.

    Refinement runs in passes.  A pass bisects the largest-error panels
    whose errors add up to the excess ``err - target / 2`` and evaluates
    all their children with one call of ``f``, so a vectorized integrand
    sees a few large node arrays rather than one small array a panel.
    """
    if not (math.isfinite(a) and (math.isfinite(b) or b == math.inf)):
        raise DomainError("quadrature needs a finite a and a finite or +inf b")
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    fv = _as_vectorized(f, vectorized)
    tail_bound = 0.0
    if b == a:
        return 0.0 + 0.0j, 0.0
    if b == math.inf:
        if decay_rate is None or decay_rate <= 0:
            raise DomainError("semi-infinite quadrature needs a decay_rate hint")
        b, tail_bound = _truncate_semi_infinite(fv, a, decay_rate, rel_tol, knots)
    edges = np.array(sorted({float(a), float(b), *(float(k) for k in knots if a < k < b)}))
    lo, hi = edges[:-1], edges[1:]
    vals, errs, masses = _gk15(fv, lo, hi)
    budget = max_subdiv
    while True:
        total, total_err = complex(np.sum(vals)), float(np.sum(errs))
        # roundoff of the absolute mass is the attainable floor, which
        # matters for genuinely vanishing integrals of oscillating f
        target = max(rel_tol * abs(total), 300.0 * np.finfo(float).eps * float(np.sum(masses)))
        if total_err <= target:
            return sign * total, total_err + tail_bound
        if budget == 0:
            raise AccuracyError(
                f"quadrature did not converge: err={total_err:.3e}",
                best=sign * total,
                err_est=total_err + tail_bound,
            )
        order = np.argsort(-errs)
        count = int(np.searchsorted(np.cumsum(errs[order]), total_err - 0.5 * target)) + 1
        pick = order[:min(count, budget)]
        budget -= len(pick)
        keep = np.ones(len(lo), dtype=bool)
        keep[pick] = False
        mid = 0.5 * (lo[pick] + hi[pick])
        halves = (np.concatenate([lo[pick], mid]), np.concatenate([mid, hi[pick]]))
        lo, hi, vals, errs, masses = (
            np.concatenate([old[keep], new])
            for old, new in zip((lo, hi, vals, errs, masses), halves + _gk15(fv, *halves))
        )


def _truncate_semi_infinite(fv, a, decay_rate, rel_tol, knots):
    """March fixed blocks until the decay bound certifies the tail."""
    w = max(8.0 / decay_rate, 1e-9)
    lo = max([float(a), *[float(k) for k in knots if np.isfinite(k)]])
    acc = 0.0
    ratio = math.exp(-decay_rate * w)
    for k in range(400):
        m = float(_gk15(fv, np.array([lo]), np.array([lo + w]))[2][0])
        acc += m
        lo += w
        tail = m * ratio / max(1e-300, 1.0 - ratio)
        if k >= 2 and tail <= 0.5 * rel_tol * max(acc, 1e-300):
            return lo, tail
    raise AccuracyError("semi-infinite truncation did not settle")


@lru_cache(maxsize=8)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=8)
def _leggauss_longdouble(n: int):
    """Gauss-Legendre nodes/weights refined to long-double accuracy.

    Newton iterations on P_n from the float64 seeds; needed because
    float64 node error alone caps quadrature at ~1e-15 relative.
    """
    x0, _ = np.polynomial.legendre.leggauss(n)
    x = x0.astype(np.longdouble)
    for _ in range(4):
        p0 = np.ones_like(x)
        p1 = x.copy()
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    p0 = np.ones_like(x)
    p1 = x.copy()
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (x * p1 - p0) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return x, w


# ----------------------------------------------------------------------------
# Test-function bases


@dataclass(frozen=True)
class _Bump:
    c1: float
    c2: float

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        c1, c2 = float(self.c1), float(self.c2)
        w2 = (c2 - c1) ** 2
        out = np.zeros(xs.shape, dtype=xs.dtype if xs.dtype.kind == "f" else float)
        inside = (xs > c1) & (xs < c2)
        xi = xs[inside]
        expo = 4.0 / w2 - 1.0 / ((xi - c1) * (c2 - xi))
        # exp(-inf) = 0 where exp(expo) underflows.  The cut stays at -745, not
        # at _exp_normal's: flushing the subnormal values too would drop nodes
        # from the transform grids and move the FE values in their last bits
        out[inside] = np.exp(np.where(expo > -745.0, expo, -np.inf))
        return out

    @property
    def support(self):
        return float(self.c1), float(self.c2)

    def knots(self):
        return (float(self.c1), float(self.c2))


@dataclass(frozen=True)
class _Spline:
    """Piecewise polynomial; ``pieces[i]`` holds ascending coefficients in
    the local variable (x - knots_[i]), which keeps Horner evaluation
    stable for high degrees."""

    knots_: tuple[float, ...]
    pieces: tuple[tuple[float, ...], ...]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        dt = xs.dtype if xs.dtype.kind == "f" else np.dtype(float)
        out = np.zeros(xs.shape, dtype=dt)
        ks = self.knots_
        for i, coeffs in enumerate(self.pieces):
            lo, hi = ks[i], ks[i + 1]
            m = (xs >= lo) & (xs < hi) if i + 1 < len(self.pieces) else (
                (xs >= lo) & (xs <= hi)
            )
            if np.any(m):
                xi = xs[m] - dt.type(lo)
                acc = np.zeros(np.count_nonzero(m), dtype=dt)
                for c in reversed(coeffs):
                    acc = acc * xi + float(c)
                out[m] = acc
        return out

    def global_piece(self, i: int) -> tuple:
        """Exact monomial-basis coefficients of piece i (Fractions)."""
        local = tuple(Fraction(c) for c in self.pieces[i])
        return _poly_compose_affine(local, Fraction(1), -Fraction(self.knots_[i]))

    @property
    def support(self):
        return float(self.knots_[0]), float(self.knots_[-1])

    def knots(self):
        return tuple(float(k) for k in self.knots_)


@dataclass(frozen=True)
class _TruncPower:
    s: complex
    T: float

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.shape, dtype=complex)
        m = xs > self.T
        out[m] = np.exp((self.s - 1.0) * np.log(xs[m]))
        return out

    @property
    def support(self):
        return float(self.T), math.inf

    def knots(self):
        return (float(self.T),)


# --- exact exp-rational pieces (for high-order bump derivatives) ------------


def _padd(p, q):
    n = max(len(p), len(q))
    return tuple(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)
    )


def _pmul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return tuple(out)


def _pdif(p):
    return tuple(i * c for i, c in enumerate(p))[1:] or (Fraction(0),)


def _pscale(p, c):
    return tuple(c * a for a in p)


def _peval(p, x):
    acc = x * 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_compose_affine(p, a, b):
    """p(a x + b) as a polynomial in x (exact when inputs are Fractions)."""
    acc = (Fraction(0),)
    lin = (b, a)
    for c in reversed(p):
        acc = _padd(_pmul(acc, lin), (c,))
    return acc


@lru_cache(maxsize=32)
def _cardinal_bspline(degree: int) -> tuple:
    """Pieces of the cardinal B-spline B_degree on [0, degree+1].

    Cox-de Boor with uniform integer knots; piece j (a polynomial in the
    global variable t, exact Fraction coefficients) is valid on [j, j+1].
    """
    pieces = [(Fraction(1),)]
    for d in range(1, degree + 1):
        prev = pieces
        nxt = []
        for j in range(d + 1):
            acc = (Fraction(0),)
            if j < len(prev):
                acc = _padd(acc, _pmul(prev[j], (Fraction(0), Fraction(1, d))))
            if 0 <= j - 1 < len(prev):
                shifted = _poly_compose_affine(prev[j - 1], Fraction(1), Fraction(-1))
                acc = _padd(
                    acc,
                    _pmul(shifted, (Fraction(d + 1, d), Fraction(-1, d))),
                )
            nxt.append(acc)
        pieces = nxt
    return tuple(pieces)


@dataclass(frozen=True)
class ExpRationalPiece:
    """S(x) / v(x)^(2m) * exp(u(x)/v(x)) on (lo, hi), zero outside.

    Closed under differentiation:
        S <- v (S' v - 2 m S v') + S (u' v - u v'),   m <- m + 1.
    Coefficients are exact Fractions so that high-order derivatives keep
    full precision; evaluation converts to float only at the end.
    """

    snum: tuple[Fraction, ...]
    m: int
    u: tuple[Fraction, ...]
    v: tuple[Fraction, ...]
    lo: float
    hi: float

    def derivative(self) -> "ExpRationalPiece":
        sp = _pdif(self.snum)
        vp = _pdif(self.v)
        up = _pdif(self.u)
        t1 = _pmul(self.v, _padd(_pmul(sp, self.v), _pscale(_pmul(self.snum, vp), -2 * self.m)))
        t2 = _pmul(self.snum, _padd(_pmul(up, self.v), _pscale(_pmul(self.u, vp), -1)))
        return ExpRationalPiece(_padd(t1, t2), self.m + 1, self.u, self.v, self.lo, self.hi)

    def eval_one(self, x: float) -> float:
        if not (self.lo < x < self.hi):
            return 0.0
        xf = Fraction(x)
        vx = _peval(self.v, xf)
        if vx == 0:
            return 0.0
        expo = _peval(self.u, xf) / vx
        if expo < Fraction(-745):
            return 0.0
        rat = _peval(self.snum, xf) / vx ** (2 * self.m)
        return float(rat) * math.exp(float(expo))

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        return np.array([self.eval_one(float(x)) for x in xs])


@dataclass(frozen=True)
class _ExpRatPieces:
    pieces: tuple[ExpRationalPiece, ...]

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        out = np.zeros(xs.shape, dtype=float)
        for p in self.pieces:
            out += p.eval_many(xs)
        return out

    @property
    def support(self):
        return min(p.lo for p in self.pieces), max(p.hi for p in self.pieces)

    def knots(self):
        ks = set()
        for p in self.pieces:
            ks.add(p.lo)
            ks.add(p.hi)
        return tuple(sorted(ks))


# ----------------------------------------------------------------------------
# TestFunction with modifier stack


@dataclass(frozen=True)
class TestFunction:
    """A member of the compactly-supported test family (or truncated power).

    ``ops`` is the modifier stack, applied left to right; an entry is
    ("shift", s) for phi -> phi_s or ("slash", a, M) for phi -> phi|_a W_M.

    The fields are frozen, so the support, the knots, the graded edges
    of ``_graded_edges`` and the derived test functions of ``shift_s`` and
    ``slash_W`` are computed once per instance.  They are cached in the
    instance's ``__dict__``, outside the fields: ``==``, ``hash`` and
    ``repr`` do not read them, and ``dataclasses.replace`` starts afresh.
    """

    __test__ = False  # not a pytest collectible, despite the name

    base: object
    ops: tuple = ()
    label: str = ""

    # -- constructors ---------------------------------------------------

    @staticmethod
    def bump(c1: float, c2: float, label: str = "") -> "TestFunction":
        if not (0 < c1 < c2):
            raise DomainError("bump requires 0 < c1 < c2")
        return TestFunction(_Bump(c1, c2), (), label or f"bump[{c1:.4g},{c2:.4g}]")

    @staticmethod
    def spline(knots, pieces, label: str = "") -> "TestFunction":
        """Compact piecewise polynomial; ``pieces[i]`` are ascending global
        (monomial-basis) coefficients on [knots[i], knots[i+1]]."""
        ks = tuple(float(k) for k in knots)
        if len(ks) < 2 or any(b <= a for a, b in zip(ks, ks[1:])):
            raise DomainError("spline needs increasing knots")
        if len(pieces) != len(ks) - 1:
            raise DomainError("need one coefficient list per interval")
        if ks[0] < 0:
            raise DomainError("spline support must lie in [0, inf)")
        local = []
        for i, p in enumerate(pieces):
            shifted = _poly_compose_affine(
                tuple(Fraction(c) for c in p), Fraction(1), Fraction(ks[i])
            )
            local.append(tuple(float(c) for c in shifted))
        return TestFunction(
            _Spline(ks, tuple(local)),
            (),
            label or f"spline[{ks[0]:.4g},{ks[-1]:.4g}]",
        )

    @staticmethod
    def trunc_power(s: complex, T: float, label: str = "") -> "TestFunction":
        if T <= 0:
            raise DomainError("trunc_power requires T > 0")
        return TestFunction(_TruncPower(complex(s), float(T)), (), label or f"x^(s-1)1(x>{T:g})")

    @staticmethod
    def bspline(degree: int, lo, hi, label: str = "") -> "TestFunction":
        """Cardinal B-spline of the given degree rescaled to [lo, hi].

        C^{degree-1}, vanishing to order ``degree`` at both endpoints, with
        exact rational piece coefficients; its high derivatives stay
        moderate, unlike the bump's, which matters when Laplace transforms
        of high derivatives are compared at tight tolerances.
        """
        if degree < 1:
            raise DomainError("bspline degree must be >= 1")
        pieces_t = _cardinal_bspline(degree)
        lo_f = Fraction(lo)
        hi_f = Fraction(hi)
        scale = (hi_f - lo_f) / (degree + 1)
        knots = [lo_f + scale * j for j in range(degree + 2)]
        # piece j in its local variable xi = x - knot_j:  t = xi/scale + j
        pieces = []
        for j, p in enumerate(pieces_t):
            shifted = _poly_compose_affine(p, Fraction(1) / scale, Fraction(j))
            pieces.append(tuple(float(c) for c in shifted))
        return TestFunction(
            _Spline(tuple(float(k) for k in knots), tuple(pieces)),
            (),
            label or f"bspline{degree}[{float(lo):.4g},{float(hi):.4g}]",
        )

    # -- geometry ---------------------------------------------------------

    @cached_property
    def _geometry(self) -> tuple[tuple[float, float], tuple[float, ...]]:
        lo, hi = self.base.support
        ks = list(self.base.knots())
        for op in self.ops:
            if op[0] == "slash":
                _, _, M = op
                lo, hi = (
                    0.0 if hi == math.inf else 1.0 / (M * hi),
                    math.inf if lo == 0.0 else 1.0 / (M * lo),
                )
                ks = [1.0 / (M * k) for k in ks if k not in (0.0, math.inf)]
        out = sorted({k for k in ks if np.isfinite(k)} | {lo} | ({hi} if np.isfinite(hi) else set()))
        return (lo, hi), tuple(out)

    @cached_property
    def _edges(self) -> dict[int, tuple[float, ...]]:
        """``_graded_edges(self, levels)`` by ``levels``, as they are asked for."""
        return {}

    @cached_property
    def _derived(self) -> dict[tuple, "TestFunction"]:
        """The last ``_DERIVED`` test functions of ``_derive``, by (ops, label)."""
        return {}

    def support(self) -> tuple[float, float]:
        return self._geometry[0]

    def knots(self) -> tuple[float, ...]:
        return self._geometry[1]

    @property
    def is_compact(self) -> bool:
        lo, hi = self.support()
        return lo > 0 and np.isfinite(hi)

    # -- evaluation -------------------------------------------------------

    def eval_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs)
        if xs.dtype not in (np.dtype(np.longdouble), np.dtype(np.float64)):
            xs = xs.astype(float)
        arg = xs.copy()
        real_mods = all(
            op[0] == "slash" or complex(op[1]).imag == 0.0 for op in self.ops
        )
        mult = np.ones(xs.shape, dtype=xs.dtype if real_mods else complex)
        for op in reversed(self.ops):
            if op[0] == "slash":
                _, a, M = op
                mult = mult * np.power(M * arg, -float(a))
                arg = 1.0 / (M * arg)
            else:
                _, s = op
                expo = (complex(s).real - 1.0) if real_mods else (complex(s) - 1.0)
                mult = mult * np.exp(expo * np.log(arg))
        vals = self.base.eval_many(arg)
        out = mult * vals
        if np.iscomplexobj(out) and np.all(np.abs(out.imag) == 0.0):
            return out.real
        return out

    def __call__(self, x: float) -> complex:
        v = self.eval_many(np.array([float(x)]))[0]
        return complex(v) if np.iscomplexobj(v) else float(v)


def eval_at(phi: TestFunction, x: float):
    """Pointwise value of the test function with all modifiers applied."""
    if x <= 0:
        raise DomainError("test functions live on x > 0")
    return phi(x)


def shift_s(phi: TestFunction, s: complex) -> TestFunction:
    """phi_s(x) = phi(x) x^{s-1}; shift_s(phi, 1) is phi itself."""
    s = complex(s)
    if s == 1.0:
        return phi
    if s.imag == 0:
        s = s.real
    ops = phi.ops
    if ops and ops[-1][0] == "shift":
        s_prev = ops[-1][1]
        combined = s_prev + s - 1.0
        new_ops = ops[:-1] if combined == 1.0 else ops[:-1] + (("shift", combined),)
    else:
        new_ops = ops + (("shift", s),)
    return _derive(phi, new_ops, f"{phi.label}.s({s})")


def slash_W(phi: TestFunction, a, M: int) -> TestFunction:
    """(phi|_a W_M)(x) = (M x)^{-a} phi(1/(M x))."""
    if M < 1:
        raise DomainError("slash_W requires M >= 1")
    return _derive(phi, phi.ops + (("slash", float(a), int(M)),), f"{phi.label}.W{M}({a:g})")


def _derive(phi: TestFunction, ops: tuple, label: str) -> TestFunction:
    """``replace(phi, ops=ops, label=label)``, one instance per (phi, ops,
    label) while phi keeps it: phi keeps its latest ``_DERIVED`` and drops
    the oldest.  So phi|W_N and phi x keep their geometry, graded edges and
    ``lseries._phi_mass`` hit from call to call.  The label is in the key:
    equal ops may carry different labels (s = 0.0 and -0.0, say)."""
    memo = phi._derived
    out = memo.get((ops, label))
    if out is None:
        if len(memo) >= _DERIVED:
            del memo[next(iter(memo))]
        out = memo[ops, label] = replace(phi, ops=ops, label=label)
    return out


def derivative(phi: TestFunction, m: int) -> TestFunction:
    """m-th derivative of an unmodified bump or spline.

    Modifier stacks are rejected: normalize first.  (The slashed bumps and
    splines of the derivative-lift identity are exp-rational pieces, built
    by ``verify._slashed_pieces``.)
    """
    if m < 0:
        raise DomainError("derivative order must be >= 0")
    if m == 0:
        return phi
    if phi.ops:
        raise DomainError("derivative requires an unmodified bump/spline; normalize first")
    base = phi.base
    if isinstance(base, _Bump):
        piece = bump_exp_rational(base.c1, base.c2)
        for _ in range(m):
            piece = piece.derivative()
        return TestFunction(_ExpRatPieces((piece,)), (), f"{phi.label}^({m})")
    if isinstance(base, _Spline):
        pieces = []
        for coeffs in base.pieces:
            cs = tuple(Fraction(c) for c in coeffs)
            for _ in range(m):
                cs = _pdif(cs)
            pieces.append(tuple(float(c) for c in cs))
        return TestFunction(
            _Spline(base.knots_, tuple(pieces)), (), f"{phi.label}^({m})"
        )
    if isinstance(base, _ExpRatPieces):
        ps = base.pieces
        for _ in range(m):
            ps = tuple(p.derivative() for p in ps)
        return TestFunction(_ExpRatPieces(ps), (), f"{phi.label}^({m})")
    raise DomainError("derivative unsupported for truncated powers")


def bump_exp_rational(c1, c2) -> ExpRationalPiece:
    """The normalized bump as an exact exp-rational piece.

    exp(4/w^2 - 1/((x-c1)(c2-x))) = exp(u(x)/v(x)) with v = (x-c1)(c2-x)
    and u = (4/w^2) v - 1.
    """
    a = Fraction(c1)
    b = Fraction(c2)
    v = _pmul((-a, Fraction(1)), (b, Fraction(-1)))  # (x-c1)(c2-x)
    c0 = Fraction(4) / (b - a) ** 2
    u = _padd(_pscale(v, c0), (Fraction(-1),))
    return ExpRationalPiece((Fraction(1),), 0, u, v, float(c1), float(c2))


# ----------------------------------------------------------------------------
# Laplace transform


def laplace(phi: TestFunction, s: complex):
    """(L phi)(s) = int_0^inf e^{-s t} phi(t) dt.

    Closed form for (shifted) truncated powers, including the analytic
    continuation for Re(s_arg) <= 0; adaptive quadrature for compact
    variants, seeded with phi's graded edges (``_graded_edges``).
    """
    base = phi.base
    if isinstance(base, _TruncPower):
        if any(op[0] == "slash" for op in phi.ops):
            raise DomainError("laplace of a slashed truncated power is unsupported")
        sigma = complex(base.s)
        for op in phi.ops:  # only shifts by construction
            sigma += complex(op[1]) - 1.0
        u = complex(s)
        if u.imag == 0:
            u = u.real
            if u == 0.0:
                if sigma.real < 0:
                    return -(base.T ** sigma) / sigma
                raise DomainError("Laplace of truncated power diverges at s=0 for Re(sigma) >= 0")
            return _principal_pow(u, -sigma) * upper_gamma(sigma, u * base.T)
        raise DomainError("truncated-power Laplace implemented for real s only")
    lo, hi = phi.support()
    if not np.isfinite(hi) or lo < 0:
        raise DomainError("laplace: unbounded support without closed form")
    sc = complex(s)
    val, err = quadrature(
        lambda xs: phi.eval_many(xs) * np.exp(-sc * xs),
        lo,
        hi,
        rel_tol=1e-13,
        knots=_graded_edges(phi, _SEED_LEVELS),
        vectorized=True,
    )
    return val


# The grids of one sweep (``verify.fe_sweep`` sets a fresh table for its
# duration): (phis, levels, dtype) -> (x, w phi).  None outside a sweep,
# where every call samples its own grid.
_GRIDS: ContextVar[dict | None] = ContextVar("_GRIDS", default=None)


def _sampled_grid(phis: tuple[TestFunction, ...], us: np.ndarray, dtype):
    """Nodes x, weighted samples w phi(x), one column per test function, and
    the ``_Layout`` of the transform product's columns.

    A composite Gauss-Legendre grid on the common support, dyadically
    graded into both endpoints (resolving bump-type essential singularities
    and keeping |u| h small on the panels that matter), 32 nodes a panel
    in float64 and 40 in long double.  A bump underflows to exactly 0 on
    the nodes graded into its endpoints; the nodes where every test
    function is 0 add nothing to any transform and are dropped.  A member
    that differs from the one before it only by its trailing shift is
    sampled as those samples times x^(s - s_prev): phi x after phi is
    exactly x times phi's column, which the layout records.  Such a column
    vanishes where the one before it does, so ``_sample`` reads the nodes'
    liveness from the other columns alone and forms it on the nodes it
    keeps.

    Within a sweep the grid is looked up in, or added to, the sweep's table
    ``_GRIDS``; it depends on ``us`` only through the grading depth.  The
    arrays are shared there, and read-only.
    """
    lo, hi = phis[0].support()
    knots = phis[0].knots()
    if any(p.support() != (lo, hi) or p.knots() != knots for p in phis[1:]):
        raise DomainError("laplace_many: test functions must share support and knots")
    if not (np.isfinite(hi) and lo >= 0):
        raise DomainError("laplace_many requires compact support")
    width = hi - lo
    u_scale = float(np.max(np.abs(us.astype(float)), initial=1.0))
    levels = min(48, max(13, int(math.ceil(math.log2(max(u_scale * width / 20.0, 2.0)))) + 2))
    grids = _GRIDS.get()
    if grids is not None:
        key = (phis, levels, np.dtype(dtype))
        grid = grids.get(key)
        if grid is None:
            grid = grids[key] = _sample(phis, levels, dtype)
            for a in (*grid[:2], grid[2].floor):
                a.flags.writeable = False
        return grid
    return _sample(phis, levels, dtype)


def _sample(phis: tuple[TestFunction, ...], levels: int, dtype):
    """``_sampled_grid``'s nodes, weighted samples and layout, sampled afresh.

    The members sampled on their own decide which nodes live: one formed as
    x^(s - s_prev) times the member before it is 0 exactly where that one
    is (x > 0 and the power finite).  The dead nodes leave every column
    before the derived ones are formed and the columns are stacked, so the
    grid is the one of sampling every node and dropping the rows where all
    columns vanish, bit for bit."""
    longdouble = np.dtype(dtype) == np.dtype(np.longdouble)
    xg, wg = _leggauss_longdouble(40) if longdouble else _leggauss(32)
    edges = np.array(_graded_edges(phis[0], levels), dtype=dtype)
    a, b = edges[:-1, None], edges[1:, None]
    h = 0.5 * (b - a)
    x = (0.5 * (a + b) + h * xg).ravel()
    w = (h * wg).ravel()
    powers = [None]  # p = prev x^power, or None where p is sampled on its own
    for prev, p in zip(phis, phis[1:]):
        (pre, s), (pre_p, s_p) = _trailing_shift(prev), _trailing_shift(p)
        powers.append(s_p - s if p.base is prev.base and pre_p == pre else None)
    own = [w * p.eval_many(x) for p, power in zip(phis, powers) if power is None]
    live = own[0] != 0
    for col in own[1:]:
        live |= col != 0
    x, own = x[live], iter(own)
    cols = []
    for power in powers:
        cols.append(next(own)[live] if power is None else cols[-1] * x ** power)
    wf = np.stack(cols, axis=1)
    return x, wf, _Layout.of(wf, [power == 1.0 for power in powers[1:]])


def _graded_edges(phi: TestFunction, levels: int) -> tuple[float, ...]:
    """Panel edges graded dyadically into both ends of phi's compact support
    (lo, hi), sorted: phi's knots (lo and hi among them), and lo + w / 2^j
    and hi - w / 2^j for j = 1..levels, w = hi - lo.  A bump's essential
    singularities sit at the two ends; these panels resolve them.  Computed
    once per test function and ``levels``."""
    edges = phi._edges.get(levels)
    if edges is None:
        lo, hi = phi.support()
        width = hi - lo
        grid = set(phi.knots())
        for j in range(1, levels + 1):
            d = width / 2.0 ** j
            grid.add(lo + d)
            grid.add(hi - d)
        edges = phi._edges[levels] = tuple(sorted(grid))
    return edges


def _trailing_shift(phi: TestFunction):
    """phi's modifiers before a trailing shift, and that shift's s (1 when
    there is none): phi(x) is x^(s-1) times what the others give."""
    if phi.ops and phi.ops[-1][0] == "shift":
        return phi.ops[:-1], phi.ops[-1][1]
    return phi.ops, 1.0


@dataclass(frozen=True, eq=False)
class _Layout:
    """The columns of a transform product over a grid's m columns w phi.

    Its 3 m logical columns are w phi(x), its modulus (the terms' mass) and
    x times that (their exponents' scale).  Real nonnegative samples are
    their own modulus, and x |w phi| of column j is column j + 1 when
    ``_sample`` formed that as x times column j (``chain[j]``): the
    columns are w phi and x w phi of the columns in ``extra``, so (phi,
    phi x) takes 3, not 6.  Signed or complex samples keep all 3 m.
    ``value``, ``mass`` and ``xmass`` pick each kind out of the product,
    slices where the columns lie side by side; ``floor`` is
    2 #{w phi != 0} + sum |w phi| a column (``_split``).
    """

    signed: bool
    extra: slice | list[int]
    value: slice
    mass: slice
    xmass: slice | list[int]
    floor: np.ndarray

    @classmethod
    def of(cls, wf: np.ndarray, chain: list[bool]) -> "_Layout":
        m = wf.shape[1]
        # sum |w phi| in node order, as a sum along axis 0 adds, without
        # its per-node overhead
        total = np.cumsum(np.abs(wf), axis=0)[-1] if len(wf) else np.zeros(m, wf.real.dtype)
        floor = 2 * np.array([np.count_nonzero(col) for col in wf.T]) + total
        if np.iscomplexobj(wf) or (wf < 0).any():
            return cls(True, slice(0, m), slice(0, m), slice(m, 2 * m), slice(2 * m, 3 * m), floor)
        xmass, extra = [], []
        for j in range(m):
            if j + 1 < m and chain[j]:
                xmass.append(j + 1)
            else:
                xmass.append(m + len(extra))
                extra.append(j)
        return cls(False, _as_slice(extra), slice(0, m), slice(0, m), _as_slice(xmass), floor)

    def columns(self, x: np.ndarray, wf: np.ndarray) -> np.ndarray:
        """The right-hand side of the transform product, each column once."""
        if self.signed:
            mag = np.abs(wf)
            return np.concatenate([wf, mag, x[:, None] * mag], axis=1)
        return np.concatenate([wf, x[:, None] * wf[:, self.extra]], axis=1)


def _as_slice(index: list[int]) -> slice | list[int]:
    """``index`` as a slice where it is a run of consecutive integers."""
    run = index == list(range(index[0], index[0] + len(index)))
    return slice(index[0], index[0] + len(index)) if run else index


def _split(out, layout: _Layout, us, unit, single: bool, powers: int = 0):
    """Values and error bounds, one row per test function, from the product
    ``out`` of an exponential table with ``layout.columns(x, wf)``.

    The error bound is 50 eps sum |w phi e^{-u x}| for the exponentials and
    the summation, plus 4 eps |u| sum x |w phi e^{-u x}| for the rounding of
    the exponent u x itself, which is relative to |u x| and dominates at
    large u, plus unit sum (2 + |w phi|) over the nodes where w phi != 0
    for the terms lost below ``unit``: at most unit |w phi| for an
    exponential and unit for a product, per node.  An exponential formed
    as a product of powers, with ``powers`` eps of extra relative rounding,
    adds powers eps sum |w phi e^{-u x}|.
    """
    eps = float(np.finfo(out.real.dtype).eps)
    vals = out[:, layout.value].T
    errs = ((50.0 + powers) * eps) * np.abs(out[:, layout.mass]).T
    errs = errs + (4.0 * eps) * np.abs(us) * np.abs(out[:, layout.xmass]).T + (unit * layout.floor)[:, None]
    return (vals[0], errs[0]) if single else (vals, errs)


def _as_tuple(phi) -> tuple[bool, tuple[TestFunction, ...]]:
    single = isinstance(phi, TestFunction)
    return single, ((phi,) if single else tuple(phi))


def laplace_many(
    phi: TestFunction | tuple[TestFunction, ...], us, dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """(L phi)(u) on an array of real u, compact support, fixed panels.

    Samples phi on the graded grid of ``_sampled_grid`` and evaluates all
    transforms with one outer product over its nodes, one exponential a
    frequency and node.  ``dtype`` may be np.longdouble for
    extended-precision accumulation; the library asks for that through
    ``laplace_lattice`` alone, which comes here for the index sets where
    its running products would cost more (negative or sparse indices).
    Returns (values, err_bounds).

    ``phi`` may also be a sequence of test functions with a common support
    and common knots (phi and phi x, say).  They share the grid and the
    exponential matrix, one matrix product yields every value and error
    column, and the arrays come back with one row per test function.
    """
    single, phis = _as_tuple(phi)
    us = np.asarray(us, dtype=dtype)
    x, wf, layout = _sampled_grid(phis, us, dtype)
    E = np.multiply.outer(-us, x)
    if E.dtype == np.float64:
        _exp_normal(E)
        unit = np.finfo(np.float64).tiny  # what _exp_normal flushes is the only loss
    else:
        np.exp(E, out=E)
        unit = np.finfo(dtype).smallest_subnormal  # underflow is the only loss
    return _split(_matmul(E, layout.columns(x, wf)), layout, us, unit, single)


def _running_powers(x: np.ndarray, step, n0: int, B: int, Q: int):
    """The baby table e^{-r step x} (row r < B) and the giant table
    e^{-(n0 + q B) step x} (column q < Q) from three exponentials a node,
    e^{-step x}, e^{-B step x} and e^{-n0 step x}, and running products:
    row r is row r - 1 times e^{-step x}, column q column q - 1 times
    e^{-B step x}."""
    e1, eB, e0 = np.exp(np.multiply.outer(np.array([-1, -B, -n0]) * step, x))
    baby = np.empty((B, len(x)), x.dtype)
    baby[0] = 1.0
    np.cumprod(np.broadcast_to(e1, (B - 1, len(x))), axis=0, out=baby[1:])
    giant = np.empty((len(x), Q), x.dtype)
    giant[:, 0], giant[:, 1:] = e0, eB[:, None]
    return baby, np.cumprod(giant, axis=1)


def laplace_lattice(
    phi: TestFunction | tuple[TestFunction, ...], ns, step, dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """``laplace_many(phi, ns * step, dtype)`` for integers ns, in float64
    or in ``np.longdouble``.

    With n = n0 + q B + r, B = ceil(sqrt(span)) and 0 <= r < B, the
    exponential e^{-n step x} is the product of a "baby" table
    e^{-r step x} (B rows) and a "giant" table e^{-(n0 + q B) step x}
    (Q = ceil(span / B) rows), so B + Q exponentials per node replace
    len(ns).  The giant table is folded into the distinct columns W of the
    grid's ``_Layout``, and one matrix product gives every value and error
    column at every lattice point:

        T[r, (q, c)] = sum_j baby[r, j] giant[q, j] W[j, c].

    In float64, entries of baby, giant and giant * W below the smallest
    normal number tiny are set to 0, so no subnormal enters the product,
    though products of two normal entries below tiny are still formed
    inside it; what the flush drops is at most tiny sum (2 + |w phi|) per
    transform and joins its error bound.  When B + Q >= len(ns) (sparse
    indices, squares say) the factorization saves nothing, and the direct
    path runs instead.

    In long double (pass ``step`` in long double too) a node takes three
    exponentials, e^{-step x}, e^{-B step x} and e^{-n0 step x}, and the
    tables are their running products (``_running_powers``).  Counting half
    an ulp for each exponential and each product, an entry of T carries
    2 B + 2 Q - 3 of them, under (B + Q) eps_ld, more than a direct
    exponential; ``_split`` charges (B + Q + 3) eps_ld to the error column.
    The exponent's own rounding stays within the 4 eps |u| x term.  Nothing is
    flushed: what underflows loses at most half the smallest subnormal a
    product, (B + Q) of them a node at most.  An exponential costs as much
    as about 30 of the product's terms there (76 ns against 2.6 ns on a
    2-core x86-64 Xeon), so the lattice runs while B Q (len(phis) + 1),
    about the product's terms a node for positive samples, is at most
    16 (len(ns) - 3), the exponentials a node it saves.  That takes in
    dense indices from len(ns) = 4 on, where float64 needs about
    2 sqrt(span) of them; it leaves out theta's squares.  On random index
    sets the two paths took equal time at 16 to 17.

    Negative indices, whose exponentials grow, take the direct path in
    either precision.
    """
    ns = np.asarray(ns, dtype=np.int64)
    n0, n1 = (int(ns.min()), int(ns.max())) if len(ns) else (0, 0)
    B = math.isqrt(n1 - n0) + 1
    Q = (n1 - n0) // B + 1
    single, phis = _as_tuple(phi)
    longdouble = np.dtype(dtype) != np.dtype(np.float64)
    step = np.dtype(dtype).type(step)
    if longdouble:
        direct = B * Q * (len(phis) + 1) > _LD_LATTICE * (len(ns) - 3)
    else:
        direct = B + Q >= len(ns)
    if n0 < 0 or direct:
        return laplace_many(phi, ns * step, dtype)
    us = ns * step
    x, wf, layout = _sampled_grid(phis, us, dtype)
    if longdouble:
        baby, giant = _running_powers(x, step, n0, B, Q)
        unit = (B + Q) * np.finfo(dtype).smallest_subnormal  # underflow is the only loss
    else:
        baby = _exp_normal(np.multiply.outer(np.arange(B) * -step, x))
        giant = _exp_normal(np.multiply.outer(x, (n0 + B * np.arange(Q)) * -step))
        unit = np.finfo(np.float64).tiny  # what _exp_normal and the fold flush is the only loss
    cols = layout.columns(x, wf)
    folded = np.einsum("jq,jc->jqc", giant, cols).reshape(len(x), Q * cols.shape[1])
    if not longdouble:
        parts = folded.view(np.float64)  # real and imaginary parts side by side
        parts[np.abs(parts) < unit] = 0.0
    table = _matmul(baby, folded).reshape(B, Q, -1)
    out = table[(ns - n0) % B, (ns - n0) // B]
    return _split(out, layout, us, unit, single, B + Q + 3 if longdouble else 0)


# ----------------------------------------------------------------------------
# The canonical battery


def standard_battery(
    count: int = 10,
    shifts=(1,),
    base: float = 0.25,
    ratio: float = math.sqrt(2.0),
) -> list[TestFunction]:
    """Bump battery with supports [base r^j, 2 base r^j], j = 0..count-1.

    The default ten members cover (1/4, ~11.3), enclosing the fixed points
    x = 1/sqrt(N) of the W_N involution for every level the fixtures use.
    Optional power shifts phi_s replicate the battery at each s.
    """
    if count < 1:
        raise DomainError("battery needs at least one member")
    out = []
    for j in range(count):
        c1 = base * ratio ** j
        phi = TestFunction.bump(c1, 2.0 * c1, label=f"bump{j}")
        for s in shifts:
            out.append(phi if s == 1 else shift_s(phi, s))
    return out
