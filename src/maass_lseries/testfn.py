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
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import AccuracyError, DomainError
from .specials import _principal_pow, upper_gamma

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
_GRID_RULES = (32, 20)  # Gauss points a panel of _grid_integrals: its value's and its check's
_CHUNK = 1 << 15  # entries of an exponential table built at once (256 kB in float64)


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
    vk = h * (ys @ _GK_W)
    diff = np.abs(vk - h * (ys @ _G_W))
    mass = h * (np.abs(ys) @ _GK_W)
    # QUADPACK-style damped error estimate
    asc = h * (np.abs(ys - (vk / (b - a))[:, None]) @ _GK_W)
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

    ``knots`` seed the initial subdivision (support endpoints, spline
    joints).  For b = +inf an exponential ``decay_rate`` hint is required;
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
            return total, total_err + tail_bound
        if budget == 0:
            raise AccuracyError(
                f"quadrature did not converge: err={total_err:.3e}",
                best=total,
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

    def support(self) -> tuple[float, float]:
        lo, hi = self.base.support
        for op in self.ops:
            if op[0] == "slash":
                _, _, M = op
                lo, hi = (
                    0.0 if hi == math.inf else 1.0 / (M * hi),
                    math.inf if lo == 0.0 else 1.0 / (M * lo),
                )
        return lo, hi

    def knots(self) -> tuple[float, ...]:
        ks = list(self.base.knots())
        for op in self.ops:
            if op[0] == "slash":
                _, _, M = op
                ks = [1.0 / (M * k) for k in ks if k not in (0.0, math.inf)]
        lo, hi = self.support()
        out = sorted({k for k in ks if np.isfinite(k)} | {lo} | ({hi} if np.isfinite(hi) else set()))
        return tuple(out)

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
    return replace(phi, ops=new_ops, label=f"{phi.label}.s({s})")


def slash_W(phi: TestFunction, a, M: int) -> TestFunction:
    """(phi|_a W_M)(x) = (M x)^{-a} phi(1/(M x))."""
    if M < 1:
        raise DomainError("slash_W requires M >= 1")
    return replace(
        phi,
        ops=phi.ops + (("slash", float(a), int(M)),),
        label=f"{phi.label}.W{M}({a:g})",
    )


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
    variants, with knots at support endpoints and spline joints.
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
        knots=phi.knots(),
        vectorized=True,
    )
    return val


def _sampled_grid(phis: tuple[TestFunction, ...], us: np.ndarray, dtype, order: int = 32):
    """Nodes x and weighted samples w phi(x), one column per test function.

    A composite Gauss-Legendre grid on the common support, dyadically
    graded into both endpoints (resolving bump-type essential singularities
    and keeping |u| h small on the panels that matter), ``order`` nodes a
    panel in float64 and 40 in long double.  A bump
    underflows to exactly 0 on the nodes graded into its endpoints; the
    nodes where every test function is 0 add nothing to any transform and
    are dropped.  A member that differs from the one before it only by its
    trailing shift is sampled as those samples times x^(s - s_prev): phi x
    after phi is exactly x times phi's column, which ``_columns`` reuses.
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
    edges = set(knots) | {lo, hi}
    for j in range(1, levels + 1):
        d = width / 2.0 ** j
        edges.add(lo + d)
        edges.add(hi - d)
    if np.dtype(dtype) == np.dtype(np.longdouble):
        xg, wg = _leggauss_longdouble(40)
    else:
        xg, wg = _leggauss(order)
    edges = np.array(sorted(edges), dtype=dtype)
    a, b = edges[:-1, None], edges[1:, None]
    h = 0.5 * (b - a)
    x = (0.5 * (a + b) + h * xg).ravel()
    w = (h * wg).ravel()
    cols = [w * phis[0].eval_many(x)]
    for prev, p in zip(phis, phis[1:]):
        (pre, s), (pre_p, s_p) = _trailing_shift(prev), _trailing_shift(p)
        if p.base is prev.base and pre_p == pre:
            cols.append(cols[-1] * x ** (s_p - s))  # p = prev x^(s_p - s)
        else:
            cols.append(w * p.eval_many(x))
    wf = np.stack(cols, axis=1)
    live = np.any(wf != 0, axis=1)
    return x[live], wf[live]


def _trailing_shift(phi: TestFunction):
    """phi's modifiers before a trailing shift, and that shift's s (1 when
    there is none): phi(x) is x^(s-1) times what the others give."""
    if phi.ops and phi.ops[-1][0] == "shift":
        return phi.ops[:-1], phi.ops[-1][1]
    return phi.ops, 1.0


def _grid_integrals(phi: TestFunction, kernel, us, rel_tol: float):
    """int phi(x) kernel(x)[:, c] dx for each column c of ``kernel`` (nodes ->
    (nodes, columns) array, column c at frequency ``us[c]``), on the grid of
    ``_sampled_grid`` for ``us``, ``_GRID_RULES[0]`` points a panel.

    ``kernel`` is called once, on these nodes and those of the coarser rule
    ``_GRID_RULES[1]`` on the same panels.  Raises :class:`AccuracyError` where
    the rules differ by more than rel_tol |value| + 300 eps m, m = int |phi kernel|
    (``quadrature``'s test).  Returns the values and estimates: that difference
    plus the rounding bound of ``_split``, 50 eps m + 4 eps |u| int x |phi kernel|.
    """
    us = np.asarray(us, dtype=float)
    x, wf = _sampled_grid((phi,), us, np.float64, _GRID_RULES[0])
    xc, wc = _sampled_grid((phi,), us, np.float64, _GRID_RULES[1])
    table = kernel(np.concatenate([x, xc]))
    vals = wf[:, 0] @ table[:len(x)]
    diff = np.abs(vals - wc[:, 0] @ table[len(x):])
    eps = np.finfo(float).eps
    mass, xmass = np.abs(np.stack([wf[:, 0], x * wf[:, 0]])) @ np.abs(table[:len(x)])
    if np.any(diff > rel_tol * np.abs(vals) + 300.0 * eps * mass):
        raise AccuracyError(f"grid rules differ by {np.max(diff):.3e}", best=vals, err_est=diff)
    return vals, diff + eps * (50.0 * mass + 4.0 * np.abs(us) * xmass)


def _columns(x: np.ndarray, wf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The right-hand side of the transform product, each column once.

    Its 3 m logical columns are w phi(x), its modulus (the terms' mass) and
    x times that (their exponents' scale).  Returns the distinct columns
    and, for each logical column, its index among them.  Real nonnegative
    samples are their own modulus, and x |w phi| is the next column when
    ``_sampled_grid`` sampled that as x times this one: (phi, phi x) takes
    3 columns, not 6.  Signed or complex samples keep all 3 m.
    """
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


def _split(out, idx, us, x, wf, unit, single: bool):
    """Values and error bounds, one row per test function, from the product
    ``out`` of an exponential table with the distinct columns of
    ``_columns(x, wf)``, read back through their index map ``idx``.

    The error bound is 50 eps sum |w phi e^{-u x}| for the exponentials and
    the summation, plus 4 eps |u| sum x |w phi e^{-u x}| for the rounding of
    the exponent u x itself, which is relative to |u x| and dominates at
    large u, plus unit sum (2 + |w phi|) over the nodes where w phi != 0
    for the terms lost below ``unit``: at most unit |w phi| for an
    exponential and unit for a product, per node.
    """
    m = wf.shape[1]
    eps = float(np.finfo(out.real.dtype).eps)
    floor = unit * (2 * np.count_nonzero(wf, axis=0) + np.sum(np.abs(wf), axis=0))
    vals = out[:, idx[:m]].T
    errs = (50.0 * eps) * np.abs(out[:, idx[m:2 * m]]).T
    errs = errs + (4.0 * eps) * np.abs(us) * np.abs(out[:, idx[2 * m:]]).T + floor[:, None]
    return (vals[0], errs[0]) if single else (vals, errs)


def _as_tuple(phi) -> tuple[bool, tuple[TestFunction, ...]]:
    single = isinstance(phi, TestFunction)
    return single, ((phi,) if single else tuple(phi))


def laplace_many(
    phi: TestFunction | tuple[TestFunction, ...], us, dtype=np.float64
) -> tuple[np.ndarray, np.ndarray]:
    """(L phi)(u) on an array of real u, compact support, fixed panels.

    Samples phi on the graded grid of ``_sampled_grid`` and evaluates all
    transforms with one outer product over its nodes.  ``dtype`` may be
    np.longdouble for extended-precision accumulation when the caller's
    series cancels heavily; the caller then passes only the frequencies
    whose terms need it.  Returns (values, err_bounds).

    ``phi`` may also be a sequence of test functions with a common support
    and common knots (phi and phi x, say).  They share the grid and the
    exponential matrix, one matrix product yields every value and error
    column, and the arrays come back with one row per test function.
    """
    single, phis = _as_tuple(phi)
    us = np.asarray(us, dtype=dtype)
    x, wf = _sampled_grid(phis, us, dtype)
    E = np.multiply.outer(-us, x)
    if E.dtype == np.float64:
        _exp_normal(E)
        unit = np.finfo(np.float64).tiny  # what _exp_normal flushes is the only loss
    else:
        np.exp(E, out=E)
        unit = np.finfo(dtype).smallest_subnormal  # underflow is the only loss
    cols, idx = _columns(x, wf)
    return _split(E @ cols, idx, us, x, wf, unit, single)


def laplace_lattice(
    phi: TestFunction | tuple[TestFunction, ...], ns, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """``laplace_many(phi, ns * step)`` for integers ns, in float64.

    With n = n0 + q B + r, B = ceil(sqrt(span)) and 0 <= r < B, the
    exponential e^{-n step x} is the product of a "baby" table
    e^{-r step x} (B rows) and a "giant" table e^{-(n0 + q B) step x}
    (Q = ceil(span / B) rows), so B + Q exponentials per node replace
    len(ns).  The giant table is folded into the distinct columns W of
    ``_columns``, and one matrix product gives every value and error
    column at every lattice point:

        T[r, (q, c)] = sum_j baby[r, j] giant[q, j] W[j, c].

    Entries of baby, giant and giant * W below the smallest normal number
    tiny are set to 0, so no subnormal enters the product, though products
    of two normal entries below tiny are still formed inside it; what the
    flush drops is at most tiny sum (2 + |w phi|) per transform and joins
    its error bound.  When B + Q >= len(ns) (sparse indices, squares say) the
    factorization saves nothing, and the direct path runs instead; so it
    does for negative indices, whose exponentials grow.
    """
    ns = np.asarray(ns, dtype=np.int64)
    n0, n1 = (int(ns.min()), int(ns.max())) if len(ns) else (0, 0)
    B = math.isqrt(n1 - n0) + 1
    Q = (n1 - n0) // B + 1
    if n0 < 0 or B + Q >= len(ns):
        return laplace_many(phi, ns * step)
    single, phis = _as_tuple(phi)
    us = ns * step
    x, wf = _sampled_grid(phis, us, np.float64)
    tiny = np.finfo(np.float64).tiny
    baby = _exp_normal(np.multiply.outer(np.arange(B) * -step, x))
    giant = _exp_normal(np.multiply.outer(x, (n0 + B * np.arange(Q)) * -step))
    cols, idx = _columns(x, wf)
    folded = np.einsum("jq,jc->jqc", giant, cols).reshape(len(x), -1)
    parts = folded.view(np.float64)  # real and imaginary parts side by side
    parts[np.abs(parts) < tiny] = 0.0
    table = (baby @ parts).view(folded.dtype).reshape(B, Q, -1)
    out = table[(ns - n0) % B, (ns - n0) // B]
    return _split(out, idx, us, x, wf, tiny, single)


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
