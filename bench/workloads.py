"""The benchmark's workloads: operations against the library's public API.

Every operation ("op") is a call into the library plus a verdict on its
output.  An op fails when it raises or when its verdict fails.  Ops that
fail today because of a known fault carry that fault: such a failure is
counted but leaves the run correct, while any other failure makes the run
incorrect.  Calls go through module attributes (``verify.fe_pair``), never
through names bound at import, so the tracer can patch them in and out.

The seed selects the op order, the oracle sample and, on
``fe_delta_twists``, which coefficient the negative control perturbs.  The
set of ops never depends on it, so every round attempts the same ops.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from maass_lseries import errors, form, lseries, qseries, specials, testfn, verify

ORACLE_REL_TOL = 1e-9
ROUTE_TOL = 1e-9
GF_TOL = 1e-10
MF_TOL = 1e-6
DECOMP_TOL = 1e-9
CONTROL_WITNESS = 1e-4

# Named faults behind the ops that fail today.
TAIL_CERTIFICATE = (
    "tail certificate: geom_tail returns inf once its ratio reaches 0.995 and the "
    "A e^{C sqrt n} envelope overstates the coefficients (MembershipError)"
)
VANISHING_TWIST = (
    "theta twisted by the conductor-3 character mod 9 vanishes identically; the "
    "relative residual compares rounding noise on both sides"
)
GAMMA_OVERFLOW = (
    "_nonhol_sum_y multiplies upper_gamma(11, 4 pi |n| y), which underflows to 0, by "
    "e^{2 pi |n| y}, which overflows: NaN integrand (AccuracyError)"
)


@dataclass
class Op:
    """One call into the library and the verdict on what it returned.

    ``check(result, results)`` returns None or the reason the verdict
    failed; ``results`` maps the names of the round's completed ops to
    their outputs, for verdicts that compare two ops.  ``faults`` names the
    known faults this op may fail by, as ``(exception type, or None for a
    failing verdict; description)`` pairs.  ``oracle`` computes reference
    values for the op's output: it returns ``(library value, oracle value,
    library error budget)`` triples.
    """

    name: str
    run: object
    check: object = None
    faults: tuple = ()
    oracle: object = None

    def verdict(self, result, results) -> str | None:
        return None if self.check is None else self.check(result, results)

    def known_fault(self, exc: BaseException | None) -> str | None:
        for kind, why in self.faults:
            if (kind is None and exc is None) or (kind is not None and isinstance(exc, kind)):
                return why
        return None


@dataclass
class Workload:
    ops: list[Op]
    oracle_sample: int
    control: object = None  # () -> (witness, detail); must exceed CONTROL_WITNESS


# ----------------------------------------------------------------------------
# verdicts


def _fe_check(reps, _results) -> str | None:
    bad = [r for r in reps if not r.passed]
    if bad:
        return "; ".join(f"{r.equation} residual {r.rel_residual:.2e} > tol {r.tol:.0e}" for r in bad)
    return None


def _identity_check(rep, _results) -> str | None:
    if rep.passed:
        return None
    return f"{rep.detail} residual {rep.rel_residual:.2e}"


def rel_diff(x: complex, y: complex) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def _agreement(partner: str):
    def check(lv, results) -> str | None:
        if partner not in results:
            return f"no {partner} value to compare"
        rel = rel_diff(lv.value, results[partner].value)
        return None if rel < ROUTE_TOL else f"routes differ by {rel:.2e}"

    return check


# ----------------------------------------------------------------------------
# oracle hooks: (library value, oracle value, library error budget)
#
# The oracle module imports scipy and mpmath; it is imported where a hook
# runs, after the timed rounds, so that neither weighs on set-up time or on
# the peak memory of the measured part of the run.


def _fe_oracle(form_name: str, chi, chi_right, j: int, a: float, N: int):
    def values(reps):
        import oracle

        f_oracle = getattr(oracle, form_name)
        bump = oracle.battery_bump(j)
        rep = reps[0]
        pref = rep.prefactor
        lhs = oracle.twisted_lvalue(f_oracle, chi.values, bump)
        rhs = oracle.twisted_lvalue(f_oracle, chi_right.values, bump.slash(a, N))
        return [(rep.lhs, lhs, rep.lhs_err), (rep.rhs / pref, rhs, rep.rhs_err / abs(pref))]

    return values


def _route_oracle(reference):
    def values(lv):
        return [(lv.value, reference(), lv.trunc_err + lv.quad_err)]

    return values


# ----------------------------------------------------------------------------
# fe_delta_twists


def _fe_ops(f, g, D_range, tol, faults_for) -> list[Op]:
    battery = testfn.standard_battery()
    half = f.weight2 % 2 != 0
    a = 2.0 - f.weight2 / 2.0
    ops = []
    for D in D_range:
        psi_d = specials.kronecker_character(D) if half else None
        for chi in specials.characters_mod(D):
            chi_right = chi.conjugate() * psi_d if half else chi.conjugate()
            for j, phi in enumerate(battery):
                ops.append(Op(
                    f"D{D}.chi{chi.index}.bump{j}",
                    lambda chi=chi, phi=phi: verify.fe_pair(f, g, chi, phi, tol),
                    _fe_check,
                    faults_for(D, chi, j),
                    _fe_oracle(f.label, chi, chi_right, j, a, f.level),
                ))
    return ops


def fe_delta_twists(rng: random.Random) -> Workload:
    f, g = qseries.fixture_pair("delta", 768)
    ops = _fe_ops(f, g, range(1, 6), 1e-8, lambda D, chi, j: ())
    a_index = rng.randint(1, 8)

    def control():
        a = dict(f.a)
        a[a_index] = a[a_index] * (1 + 1e-9)
        fp = replace(f, a=a, label="delta*")
        worst = max(
            (r for phi in testfn.standard_battery()
             for r in verify.fe_pair(fp, fp, specials.trivial_character(1), phi, 1e-8)),
            key=lambda r: r.rel_residual,
        )
        return worst.rel_residual, f"a({a_index}) x (1 + 1e-9): witness {worst.rel_residual:.2e} at {worst.phi_id} {worst.equation}"

    return Workload(ops, 2, control)


# ----------------------------------------------------------------------------
# converse_theta


def _theta_faults(D: int, chi, j: int) -> tuple:
    faults = []
    if D >= 7:
        faults.append((errors.MembershipError, TAIL_CERTIFICATE))
    if D == 9 and chi.conductor == 3:
        faults.append((None, VANISHING_TWIST))
    return tuple(faults)


def converse_theta(rng: random.Random) -> Workload:
    f, g = qseries.fixture_pair("theta", 768)
    N = f.level
    d_range = [D for D in range(1, N * N) if D % 2 == 1 and math.gcd(D, N) == 1]
    ops = _fe_ops(f, g, d_range, 1e-6, _theta_faults)
    return Workload(ops, 2)


# ----------------------------------------------------------------------------
# harmonic_kernels

HARMONIC_K = 12
HARMONIC_A = {-1: 1.0, 0: 2.0, 1: 5.0, 2: -1.0}
SHADOW_TERMS = 12


def harmonic_form(tau: dict[int, complex]) -> form.FormData:
    """Weight 2 - k = -10, shadow Delta: b(-n) = -conj tau(n) (4 pi n)^{1-k}."""
    k = HARMONIC_K
    b = {-n: -complex(t).conjugate() * (4.0 * math.pi * n) ** (1 - k) for n, t in tau.items()}
    return form.FormData(
        weight2=2 * (2 - k), level=1, psi=specials.trivial_character(1), n0=1,
        a=dict(HARMONIC_A), b=b, growth_C=8.0, label="g", exhaustive=True,
    )


def _route_ops(label: str, fm, integral_bumps, oracle_value=None, series_faults=None) -> list[Op]:
    """The series route on every battery bump, the integral route on some."""
    ops = []
    for j, phi in enumerate(testfn.standard_battery()):
        ref = None if oracle_value is None else _route_oracle(lambda j=j: oracle_value(j))
        series = f"{label}.series.bump{j}"
        ops.append(Op(series, lambda phi=phi: lseries.lseries_series(fm, phi),
                      faults=(series_faults or {}).get(j, ()), oracle=ref))
        if j in integral_bumps:
            ops.append(Op(f"{label}.integral.bump{j}",
                          lambda phi=phi: lseries.lseries_integral(fm, phi),
                          _agreement(series), oracle=ref))
    return ops


def harmonic_kernels(rng: random.Random) -> Workload:
    tau_form = qseries.fixture("delta", SHADOW_TERMS + 1)
    tau = {n: tau_form.a[n] for n in range(1, SHADOW_TERMS + 1)}
    g = harmonic_form(tau)

    def g_oracle(j):
        import oracle

        shadow = dict(enumerate(oracle.tau(SHADOW_TERMS), start=1))
        return oracle.lvalue(
            lambda y: oracle.harmonic_g(HARMONIC_A, shadow, HARMONIC_K, y),
            oracle.battery_bump(j),
        )

    def fixture_oracle(name):
        def value(j):
            import oracle

            return oracle.twisted_lvalue(getattr(oracle, name), [1.0], oracle.battery_bump(j))

        return value

    # bump 9 takes the series route only: the integral route fails by the same
    # overflow in eval_iy but needs about 21 s to do so
    ops = _route_ops("g", g, range(9), g_oracle, {9: ((errors.AccuracyError, GAMMA_OVERFLOW),)})
    for name, prec in (("delta", 256), ("j744", 768), ("inv_delta", 768), ("theta", 768)):
        ref = fixture_oracle(name) if name in ("delta", "theta") else None
        ops += _route_ops(name, qseries.fixture(name, prec), range(10), ref)
    kernel_phi = testfn.TestFunction.bump(1, 2)
    for k in (2, 4, 12):
        for n in range(1, 6):
            ops.append(Op(f"gf.n{n}.k{k}", lambda n=n, k=k: verify.gf_term_check(n, k, kernel_phi, GF_TOL),
                          _identity_check))
            ops.append(Op(f"mf.n{n}.k{k}", lambda n=n, k=k: verify.mf_term_check(n, k, 1, kernel_phi, MF_TOL),
                          _identity_check))
    ops.append(Op("decomp", lambda: verify.decomp_identity_check(g, tau, kernel_phi, DECOMP_TOL),
                  _identity_check))
    return Workload(ops, 2)


BUILDERS = {
    "fe_delta_twists": fe_delta_twists,
    "converse_theta": converse_theta,
    "harmonic_kernels": harmonic_kernels,
}


def build(name: str, seed: int) -> Workload:
    """The workload's ops in the seed's order."""
    rng = random.Random(seed)
    wl = BUILDERS[name](rng)
    rng.shuffle(wl.ops)
    return wl
