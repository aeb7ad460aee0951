"""Every public function of the package has a caller in the library, or a
stated reason to stay without one."""

import ast
import pathlib

import maass_lseries

SRC = pathlib.Path(maass_lseries.__file__).parent

# Public functions that nothing in the library calls, each kept as an entry
# point for the reason given.  README's "Public names" holds the same list.
KEPT = (
    ("series_membership", "the paper's admissibility bound for a form and a test function"),
    ("lseries_s", "the s-parameter family, an independent route by the split integral"),
    ("lseries_delta_integral", "L_{delta_k f}(phi) by the integral, an independent route"),
    ("lseries_delta", "L_{delta_k f}(phi) by the series, an independent route"),
    ("lseries_twisted", "one twisted value, an independent route to the sweeps' values"),
    ("regularized_lseries", "the incomplete-gamma regularized series, an independent route"),
    ("validate_growth", "a documented check of the stored coefficients' growth"),
    ("alpha_identity_check", "a documented check of the derivative lift (demo 04)"),
    ("summation_residual", "a documented check of the summation formula (demo 05)"),
    ("fe_pair", "the one-instance functional-equation check that the sweeps equal"),
    ("fe_residual_int", "the integral-weight functional equation alone (demo 02)"),
    ("fe_residual_half", "the half-integral-weight functional equation alone (demo 02)"),
    ("eval_point", "the evaluation API: f at one point"),
    ("delta_k_point", "the evaluation API: delta_k f at one point"),
    ("eval_at", "phi at one point; it rejects x <= 0, where phi(x) does not"),
    ("laplace", "the closed-form scalar transform (demo 01)"),
    ("gauss_sum", "the scalar Gauss sum that gauss_sums equals bit for bit"),
    ("shadow_coeffs", "the shadow of a harmonic form's nonholomorphic part"),
    ("qexp_add", "q-series algebra, for fixtures built as sums of forms"),
    ("qexp_scale", "q-series algebra, for fixtures built as sums of forms"),
)


def _public_functions() -> set[str]:
    return {name for name in maass_lseries.__all__
            if callable(obj := getattr(maass_lseries, name)) and not isinstance(obj, type)}


def _called() -> set[str]:
    """The names read anywhere in the library outside ``__init__``, except
    by the top-level definition of the same name (a recursion is no caller)."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt) if isinstance(node, (ast.Name, ast.Attribute))}
            found |= names - {getattr(stmt, "name", None)}
    return found


def test_every_public_function_has_a_caller_or_a_reason():
    kept = dict(KEPT)
    assert len(kept) == len(KEPT)
    orphans = _public_functions() - _called() - kept.keys()
    assert not orphans, f"public functions with no caller in the library: {sorted(orphans)}"


def test_every_kept_name_is_public_and_uncalled():
    kept = dict(KEPT)
    gone = kept.keys() - _public_functions()
    assert not gone, f"kept names that are no longer public functions: {sorted(gone)}"
    called = kept.keys() & _called()
    assert not called, f"kept names that now have a caller, so need no reason: {sorted(called)}"


def test_star_import_binds_no_module():
    import types

    names = {}
    exec("from maass_lseries import *", names)
    modules = sorted(name for name, value in names.items() if isinstance(value, types.ModuleType))
    assert not modules, modules
    assert "lseries_series" in names and "FormData" in names
