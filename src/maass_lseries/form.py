"""Coefficient data of (candidate) harmonic Maass forms and its evaluation.

A form is specified by its Fourier data: holomorphic coefficients a(n) for
n >= -n0, nonholomorphic coefficients b(n) for n < 0 (weighted by the
incomplete gamma factor), half-integral weights carried as weight2 = 2k,
a level with character, and a period M (1 for untwisted data, D after a
twist).  Truncation tails are certified from the declared growth envelope
|c(n)| <= A e^{C sqrt|n|}; forms flagged ``exhaustive`` are exact finite
Fourier polynomials with no tail at all.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, InsufficientDataError, SchemaError, ShadowVanishesError
from .specials import Character, _gamma_half_exp, _matmul, characters_mod, gauss_sums
from .testfn import _CHUNK, _LOG_TINY, _exp_normal

_TWO_PI = 2.0 * math.pi


class RuleCoeffs(Mapping):
    """Coefficients given by a rule on a contiguous index range.

    Backs synthetic forms whose coefficient count would be unreasonable to
    store (e.g. a(n) = 1 up to n ~ 1e8 for zeta values).  ``vfn`` is an
    optional vectorized version of the rule used by chunked summation.
    """

    def __init__(self, fn, n_min: int, n_max: int, vfn=None):
        self.fn = fn
        self.n_min = int(n_min)
        self.n_max = int(n_max)
        self.vfn = vfn

    def __getitem__(self, n):
        if self.n_min <= n <= self.n_max:
            return self.fn(n)
        raise KeyError(n)

    def __iter__(self):
        return iter(range(self.n_min, self.n_max + 1))

    def __len__(self):
        return self.n_max - self.n_min + 1

    def eval_range(self, lo: int, hi: int) -> np.ndarray:
        ns = np.arange(lo, hi + 1)
        if self.vfn is not None:
            return np.asarray(self.vfn(ns))
        return np.array([self.fn(int(n)) for n in ns])


class ArrayCoeffs(Mapping):
    """Coefficients held as a sorted int64 index array and a complex value
    array, the layout ``FormData._arrays`` hands to the evaluators."""

    def __init__(self, ns: np.ndarray, vals: np.ndarray):
        self.ns = ns
        self.vals = vals

    def __getitem__(self, n):
        i = int(np.searchsorted(self.ns, n))
        if i < len(self.ns) and self.ns[i] == n:
            return complex(self.vals[i])
        raise KeyError(n)

    def __iter__(self):
        return iter(self.ns.tolist())

    def __len__(self):
        return len(self.ns)


_ARRAY_CAP = 5_000_000


@dataclass(frozen=True)
class FormData:
    """Fourier data (a(n), b(n), n0, weight 2k/2, level, character, period)."""

    weight2: int
    level: int
    psi: Character
    period: int = 1
    n0: int = 0
    a: Mapping = field(default_factory=dict)
    b: Mapping = field(default_factory=dict)
    growth_C: float = 4.0
    label: str = ""
    exhaustive: bool = False

    def __post_init__(self):
        if self.level < 1 or self.period < 1 or self.n0 < 0:
            raise DomainError("level, period must be >= 1 and n0 >= 0")
        if self.growth_C <= 0:
            raise DomainError("growth_C must be positive")
        if self.weight2 % 2 != 0 and self.level % 4 != 0:
            raise DomainError("half-integral weight requires 4 | level")
        if self.psi.modulus != self.level:
            raise DomainError("character modulus must equal the level")
        if any(n >= 0 for n in self.b):
            raise DomainError("b-coefficients are indexed by n < 0")
        if isinstance(self.a, dict) and self.a and min(self.a) < -self.n0:
            raise DomainError("a-index below -n0")
        object.__setattr__(self, "_cache", {})

    @property
    def k(self) -> float:
        return self.weight2 / 2.0

    # -- cached coefficient arrays ---------------------------------------

    def _arrays(self, part: str):
        cache = self._cache
        if part not in cache:
            m = self.a if part == "a" else self.b
            if isinstance(m, ArrayCoeffs):
                cache[part] = (m.ns, m.vals)
                return cache[part]
            if len(m) > _ARRAY_CAP:
                raise DomainError("coefficient map too large for dense evaluation")
            ns = np.array(sorted(m), dtype=np.int64)
            vals = np.array([complex(m[int(n)]) for n in ns], dtype=complex)
            cache[part] = (ns, vals)
        return cache[part]

    def _positive(self) -> tuple[int, int, np.ndarray, np.ndarray]:
        """The a-indices n > 0, cached like ``_arrays``: the number of
        a-indices, where the n > 0 start among them (they are sorted), those
        n as floats, and the (2, len(n)) rows [0, log n]."""
        cache = self._cache
        if "pos_a" not in cache:
            ns = self._arrays("a")[0]
            start = int(np.searchsorted(ns, 0, side="right"))
            n = ns[start:].astype(float)
            cache["pos_a"] = (len(ns), start, n, np.stack([np.zeros_like(n), np.log(n)]))
        return cache["pos_a"]

    def _envelope(self, part: str) -> np.ndarray:
        """e^{growth_C sqrt|n|} at the stored indices of ``part``, cached."""
        key = "env_" + part
        if key not in self._cache:
            ns = self._arrays(part)[0]
            self._cache[key] = np.exp(self.growth_C * np.sqrt(np.abs(ns).astype(float)))
        return self._cache[key]

    def amplitude(self, part: str) -> float:
        """A with |c(n)| <= A e^{growth_C sqrt|n|} over the stored range."""
        key = "amp_" + part
        if key not in self._cache:
            ns, vals = self._arrays(part)
            if len(ns) == 0:
                self._cache[key] = 0.0
            else:
                self._cache[key] = float(max(1e-300, np.max(np.abs(vals) / self._envelope(part))))
        return self._cache[key]


def geom_tail(A: float, C: float, alpha: float, n_start: int, poly_pow: float = 0.0) -> float:
    """Certified bound for A sum_{n > n_start} n^p e^{C sqrt n - alpha n}.

    Uses the geometric ratio bound valid when terms decrease; returns inf
    when the ratio test fails at n_start (caller must extend the range).
    """
    if A == 0.0:
        return 0.0
    if alpha <= 0:
        return math.inf
    n1 = max(n_start, 0) + 1
    log_ratio = (
        max(0.0, poly_pow) * math.log((n1 + 1) / n1)
        + C / (2.0 * math.sqrt(n1))
        - alpha
    )
    r = math.exp(log_ratio)
    if r >= 0.995:
        return math.inf
    log_t1 = poly_pow * math.log(n1) + C * math.sqrt(n1) - alpha * n1
    if log_t1 > 690:
        return math.inf
    return A * math.exp(log_t1) / (1.0 - r)


def required_n_estimate(A: float, C: float, alpha: float, tol: float) -> int:
    """Rough n with A e^{C sqrt n - alpha n} <= tol (for error messages)."""
    if alpha <= 0:
        return -1
    target = max(0.0, math.log(max(A, 1e-300) / max(tol, 1e-300)))
    root = (C + math.sqrt(C * C + 4.0 * alpha * target)) / (2.0 * alpha)
    return int(root * root) + 8


# ----------------------------------------------------------------------------
# evaluation


def _hol_tail(f: FormData, alpha: float, extra_poly: float = 0.0, mass: float = 1.0) -> float:
    """Tail of the a-part past the stored range against the envelope
    mass A e^{C sqrt n - alpha n} n^extra_poly; ``mass`` scales A (the
    series route passes phi's L1 mass)."""
    if f.exhaustive:
        return 0.0
    ns, _ = f._arrays("a")
    n_max = int(ns[-1]) if len(ns) else 0
    return geom_tail(f.amplitude("a") * mass, f.growth_C, alpha, max(n_max, 0), extra_poly)


def _nonhol_tail(f: FormData, alpha: float, extra_poly: float = 0.0) -> float:
    """Tail for the b-part against Gamma(1-k, x) <= c x^{-k} e^{-x}.

    Valid with c = 1 for k >= 0 (any x > 0) and c = 2 for k < 0 once
    x >= -2k; alpha is the per-n exponential rate after the gamma decay is
    folded in.
    """
    if f.exhaustive or len(f.b) == 0:
        return 0.0
    ns, _ = f._arrays("b")
    m_max = int(-ns[0])  # most negative index
    k = f.k
    x_next = 2.0 * alpha * (m_max + 1)  # = 4 pi (m+1) y / M when alpha = 2 pi y / M
    if k < 0 and x_next < -2.0 * k:
        return math.inf
    c = 1.0 if k >= 0 else 2.0
    pref = c * (2.0 * alpha) ** (-k)
    return geom_tail(f.amplitude("b") * pref, f.growth_C, alpha, m_max, -k + extra_poly)


def _evaluate(f: FormData, zs, delta: bool, tol: float) -> np.ndarray:
    """f(z), or (delta_k f)(z) = z df/dx + (k/2) f with ``delta``, at every z
    of the array ``zs`` (Im z > 0), by the truncated Fourier expansion.

    One pass over the a- and b-parts at w = Re(2 pi i n z / M) = -2 pi n y / M:
    a-terms take e^w, b-terms Gamma(1-k, 2w) e^w through ``_gamma_half_exp``
    (finite past underflow).  The phases e^{2 pi i n Re z / M} are formed
    only when some Re z != 0; delta_k weights each term by
    k/2 + 2 pi i n z / M.  The tail is certified at the smallest Im z and,
    for delta_k, the largest |z|.

    The ordinates are taken in ascending order, in row blocks of at most
    ``_CHUNK`` table entries.  A block keeps only the a-columns whose e^w
    is normal at its smallest y, and ``_exp_normal`` flushes the rest of
    its subnormal e^w to 0; what is flushed, at most tiny |a(n)| a term
    (times the delta_k weight), joins the tail bound.
    """
    zs = np.asarray(zs, dtype=complex).ravel()
    if np.any(zs.imag <= 0):
        raise DomainError("evaluation requires Im z > 0")
    y_min = float(zs.imag.min())
    alpha = _TWO_PI * y_min / f.period
    tail = _hol_tail(f, alpha) + _nonhol_tail(f, alpha)
    ns_a, vals_a = f._arrays("a")
    pos = ns_a > 0
    flushed = np.abs(vals_a[pos])  # bounds a term whose e^w < tiny is flushed, over tiny
    if delta:
        scale = _TWO_PI * float(np.abs(zs).max()) / f.period
        tail = abs(0.5 * f.k) * tail + scale * (
            _hol_tail(f, alpha, 1.0) + _nonhol_tail(f, alpha, 1.0)
        )
        flushed = flushed * (abs(0.5 * f.k) + scale * ns_a[pos])
    tail += np.finfo(float).tiny * float(np.sum(flushed))
    if tail > tol:
        raise InsufficientDataError(
            f"tail bound {tail:.2e} > tol {tol:.2e} at y={y_min:g}",
            required_n=required_n_estimate(f.amplitude("a"), f.growth_C, alpha, tol),
        )
    off_axis = bool(np.any(zs.real != 0))
    nb = len(f._arrays("b")[0])
    order = np.argsort(zs.imag, kind="stable")
    out = np.empty(len(zs), dtype=complex)
    i = 0
    while i < len(zs):
        # e^w < tiny past n = -log(tiny) M / (2 pi y) at the block's smallest y,
        # with a margin for the rounding of w
        n_cut = -_LOG_TINY * f.period / (_TWO_PI * zs[order[i]].imag) * (1.0 + 1e-9)
        cut = int(np.searchsorted(ns_a, n_cut, side="right"))
        block = order[i:i + max(1, _CHUNK // max(1, cut + nb))]
        z = zs[block, None]
        acc = np.zeros(len(block), dtype=complex)
        for part, (ns, vals) in (("a", (ns_a[:cut], vals_a[:cut])), ("b", f._arrays("b"))):
            if not len(ns):
                continue
            w = -_TWO_PI * (z.imag * ns) / f.period
            weight = 0.5 * f.k + w if delta else 1.0
            terms = _exp_normal(w) if part == "a" else _gamma_half_exp(1.0 - f.k, 2.0 * w)
            if off_axis:
                theta = _TWO_PI * (z.real * ns) / f.period
                terms = terms * np.exp(1j * theta)
                weight = weight + 1j * theta
            if delta:
                terms *= weight
            acc += _matmul(terms, vals)
        out[block] = acc
        i += len(block)
    return out


def eval_point(f: FormData, z: complex, tol: float = 1e-12) -> complex:
    """f(z) for Im z > 0 by truncated Fourier expansion with certified tail."""
    return complex(_evaluate(f, [z], False, tol)[0])


def eval_iy(f: FormData, ys, tol: float = 1e-12) -> np.ndarray:
    """f(iy) on an array of ordinates y > 0."""
    return _evaluate(f, 1j * np.asarray(ys, dtype=float), False, tol)


def delta_k_point(f: FormData, z: complex, tol: float = 1e-12) -> complex:
    """(delta_k f)(z) = z d f/dx + (k/2) f, via the term-wise expansion."""
    return complex(_evaluate(f, [z], True, tol)[0])


def delta_k_iy(f: FormData, ys, tol: float = 1e-12) -> np.ndarray:
    """(delta_k f)(iy) on an array of ordinates y > 0."""
    return _evaluate(f, 1j * np.asarray(ys, dtype=float), True, tol)


# ----------------------------------------------------------------------------
# twists, shadows, growth validation


def twist(f: FormData, chi: Character) -> FormData:
    """f_chi: coefficients multiplied by the conjugate-character Gauss sums.

    a(n) becomes a(n) tau_chibar(n mod D), and so does b(n), from one table
    of the D Gauss sums (``gauss_sums``, equal bit for bit to D calls of
    ``gauss_sum``; exactly 1 at D = 1).  The twisted form has period D;
    iterated twists are rejected (the transformation theory is stated for
    period-1 input only).  Each call builds its own table and form: a sweep
    (``verify.fe_sweep``) twists each (f, chi) once and reuses the result
    for every test function.  The twisted form shares f's index arrays and
    growth_C, and so the tables of ``FormData._positive`` and ``_envelope``.
    """
    D = chi.modulus
    if f.period != 1:
        raise DomainError("twist requires an untwisted form (period 1)")
    if math.gcd(D, f.level) != 1:
        raise DomainError("twist requires gcd(D, N) = 1")
    taus = gauss_sums(chi.conjugate())

    def twisted(part: str) -> ArrayCoeffs:
        ns, vals = f._arrays(part)
        return ArrayCoeffs(ns, vals * taus[ns % D])

    out = replace(
        f,
        period=D,
        a=twisted("a"),
        b=twisted("b"),
        label=f"{f.label}.chi[{D}.{chi.index}]" if f.label else f"chi[{D}.{chi.index}]",
    )
    out._cache.update(pos_a=f._positive(), env_a=f._envelope("a"), env_b=f._envelope("b"))
    return out


def shadow_coeffs(g: FormData) -> dict[int, complex]:
    """Fourier coefficients of xi_{2-k} g from the nonholomorphic part.

    For g of weight 2-k (k >= 2 an even integer) the shadow is the cusp
    form with a_f(n) = -conj(c_g^-(-n)) (4 pi n)^{k-1}, n >= 1.
    """
    if g.weight2 % 2 != 0:
        raise DomainError("shadow_coeffs requires integral weight")
    k = 2 - g.weight2 // 2
    if k < 2:
        raise DomainError("shadow_coeffs requires source weight 2-k with k >= 2")
    if len(g.b) == 0:
        raise ShadowVanishesError("the form is weakly holomorphic; its shadow is zero")
    out = {}
    for m, c in g.b.items():
        n = -m
        out[n] = -np.conj(complex(c)) * (4.0 * math.pi * n) ** (k - 1)
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class GrowthReport:
    C_fit: float
    ok: bool


def _growth_fit(items) -> float:
    """The smallest C >= 0 with |c| <= e^{C sqrt|n|} over the (n, c) pairs
    (n != 0, |c| > 1)."""
    c_fit = 0.0
    for n, v in items:
        if n != 0 and abs(v) > 1.0:
            c_fit = max(c_fit, math.log(abs(v)) / math.sqrt(abs(n)))
    return c_fit


def validate_growth(f: FormData) -> GrowthReport:
    """Fit the smallest C with |c(n)| <= e^{C sqrt|n|} over the stored range."""
    c_fit = max(_growth_fit(zip(*f._arrays(part))) for part in ("a", "b"))
    return GrowthReport(C_fit=c_fit, ok=c_fit <= f.growth_C)


# ----------------------------------------------------------------------------
# coefficient JSON schema (shared with the CLI)


def form_to_dict(f: FormData) -> dict:
    return {
        "weight2": f.weight2,
        "level": f.level,
        "character": {"modulus": f.psi.modulus, "index": f.psi.index},
        "period": f.period,
        "n0": f.n0,
        "growth_C": f.growth_C,
        "label": f.label,
        "exhaustive": f.exhaustive,
        "a": [[int(n), float(np.real(v)), float(np.imag(v))] for n, v in sorted(f.a.items())],
        "b": [[int(n), float(np.real(v)), float(np.imag(v))] for n, v in sorted(f.b.items())],
    }


def form_from_dict(d: dict) -> FormData:
    """The form of a coefficient JSON object; ``label`` and ``exhaustive``
    may be absent (files written before they were)."""
    try:
        exhaustive = d.get("exhaustive", False)
        if not isinstance(exhaustive, bool):
            raise TypeError(f"exhaustive must be true or false, not {exhaustive!r}")
        ch = d["character"]
        chars = characters_mod(int(ch["modulus"]))
        psi = chars[int(ch["index"])]
        a = {int(n): complex(re, im) for n, re, im in d["a"]}
        b = {int(n): complex(re, im) for n, re, im in d["b"]}
        return FormData(
            weight2=int(d["weight2"]),
            level=int(d["level"]),
            psi=psi,
            period=int(d.get("period", 1)),
            n0=int(d["n0"]),
            a=a,
            b=b,
            growth_C=float(d["growth_C"]),
            label=str(d.get("label", "")),
            exhaustive=exhaustive,
        )
    except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"malformed coefficient data: {exc}") from exc
