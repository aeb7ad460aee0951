"""Test-function L-series of harmonic Maass forms.

Numerical library for the L-series pairing coefficient data of (candidate)
harmonic Maass forms with compactly supported test functions: evaluation by
series and by integral, functional equations with Dirichlet twists in
integral and half-integral weight, converse-theorem sweeps, derivative-lift
identities, and the summation-formula term checks.
"""

from types import ModuleType as _ModuleType

from .errors import (
    AccuracyError,
    DomainError,
    InsufficientDataError,
    MembershipError,
    RangeOverflowError,
    SchemaError,
    ShadowVanishesError,
)
from .form import (
    FormData,
    GrowthReport,
    RuleCoeffs,
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
from .lseries import (
    LValue,
    regularized_lseries,
    classical_value,
    lseries_delta,
    lseries_delta_integral,
    lseries_integral,
    lseries_s,
    lseries_series,
    lseries_twisted,
    series_membership,
)
from .qseries import (
    QExpansion,
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
from .specials import (
    Character,
    characters_mod,
    epsilon_d,
    gauss_sum,
    kronecker,
    kronecker_character,
    trivial_character,
    upper_gamma,
)
from .testfn import (
    TestFunction,
    derivative,
    eval_at,
    laplace,
    laplace_lattice,
    laplace_many,
    quadrature,
    shift_s,
    slash_W,
    standard_battery,
)
from .verify import (
    FEReport,
    IdentityReport,
    SummationReport,
    SweepReport,
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

# the names imported above, without the submodules they came from
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
