"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import math
import os
import sys
import types
from array import array
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from maass_lseries import errors, lseries, qseries, specials, testfn  # noqa: E402


def _recording(spans):
    """A Recording of (name, start, end, parent) tuples, in start order."""
    names = sorted({s[0] for s in spans})
    return tracer.Recording(
        names,
        array("i", [names.index(s[0]) for s in spans]),
        array("d", [s[1] for s in spans]),
        array("d", [s[2] for s in spans]),
        array("i", [s[3] for s in spans]),
        Counter(),
        {},
    )


def test_self_time_subtracts_nested_children():
    rec = _recording([
        ("verify.outer", 0.0, 10.0, -1),
        ("lseries.mid", 1.0, 4.0, 0),
        ("testfn.leaf", 2.0, 3.0, 1),
        ("lseries.mid", 5.0, 6.0, 0),
    ])
    assert list(rec.self_times()) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    assert rec.by_function() == {
        "verify.outer": (1, pytest.approx(6.0)),
        "lseries.mid": (2, pytest.approx(3.0)),
        "testfn.leaf": (1, pytest.approx(1.0)),
    }
    metrics = tracer.layer_metrics(rec)
    assert metrics["lseries.self_s"] == pytest.approx(3.0)
    assert metrics["verify.self_s"] == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once():
    rec = _recording([
        ("verify.outer", 0.0, 10.0, -1),
        ("testfn.a", 1.0, 4.0, 0),
        ("testfn.b", 3.0, 7.0, 0),  # overlaps a, as a second thread would
        ("testfn.c", 8.0, 12.0, 0),  # outlives its parent: clipped at 10
    ])
    assert rec.self_times()[0] == pytest.approx(10.0 - 6.0 - 2.0)


def _fake_modules():
    inner_mod = types.ModuleType("fake.inner")

    def leaf(x):
        return x + 1

    leaf.__module__ = "fake.inner"
    inner_mod.leaf = leaf
    inner_mod._private = leaf
    outer_mod = types.ModuleType("fake.outer")
    exec("def top(x):\n    return leaf(x) * 2\n", outer_mod.__dict__)
    outer_mod.top.__module__ = "fake.outer"
    outer_mod.leaf = leaf  # imported by name, as lseries imports laplace_many
    return inner_mod, outer_mod


def test_tracer_patches_every_namespace_and_restores_it():
    inner_mod, outer_mod = _fake_modules()
    original = inner_mod.leaf
    tr = tracer.Tracer([inner_mod, outer_mod], [inner_mod, outer_mod])
    assert sorted(tr.targets) == ["inner.leaf", "outer.top"]
    tr.install()
    assert outer_mod.top(1) == 4
    assert inner_mod.leaf(1) == 2
    tr.uninstall()
    assert inner_mod.leaf is original and outer_mod.leaf is original
    assert outer_mod.top(1) == 4  # untraced call: no span
    rec = tr.take()
    names = [rec.names[i] for i in rec.name_ids]
    assert names == ["outer.top", "inner.leaf", "inner.leaf"]
    assert list(rec.parent) == [-1, 0, -1]
    selfs = rec.self_times()
    assert selfs[0] + selfs[1] == pytest.approx(rec.end[0] - rec.start[0])


def test_tracer_counts_quadrature_points_and_raised_calls():
    tr = tracer.Tracer([testfn], [testfn])
    tr.install()
    try:
        value, _ = testfn.quadrature(lambda xs: xs * xs, 0.0, 1.0, vectorized=True)
        with pytest.raises(errors.AccuracyError):
            testfn.quadrature(lambda xs: abs(xs - 0.3) ** -0.9, 0.0, 1.0, vectorized=True, max_subdiv=3)
    finally:
        tr.uninstall()
    rec = tr.take()
    assert value.real == pytest.approx(1.0 / 3.0)
    metrics = tracer.layer_metrics(rec)
    assert metrics["testfn.quadrature.calls"] == 2
    assert metrics["testfn.quadrature.points"] == 15 * (1 + 7)  # 1 panel, then 1 + 2 * 3
    assert metrics["testfn.quadrature.failed"] == 1


class _Verdict:
    def __init__(self, ok):
        self.ok = ok


def test_round_counts_raised_and_failing_verdicts_as_failed():
    def raise_(exc):
        raise exc

    def check(res, _results):
        return None if res.ok else "verdict failed"

    membership = ((errors.MembershipError, "tail certificate"),)
    wl = workloads.Workload([
        workloads.Op("passes", lambda: _Verdict(True), check),
        workloads.Op("bad-verdict", lambda: _Verdict(False), check),
        workloads.Op("known-verdict", lambda: _Verdict(False), check, ((None, "named"),)),
        workloads.Op("known-raise", lambda: raise_(errors.MembershipError("m")), check, membership),
        workloads.Op("other-raise", lambda: raise_(errors.AccuracyError("a")), check, membership),
    ], 0)
    r = run.Round(wl)
    assert len(r.latencies) == 5
    assert set(r.results) == {"passes", "bad-verdict", "known-verdict"}
    assert r.failures == {
        "bad-verdict": ("verdict failed", None),
        "known-verdict": ("verdict failed", "named"),
        "known-raise": ("MembershipError: m", "tail certificate"),
        "other-raise": ("AccuracyError: a", None),
    }


def test_route_agreement_needs_the_partner_value():
    check = workloads._agreement("series")
    lv = lseries.LValue(1.0, 0.0, 0.0, 1, "integral")
    assert check(lv, {"series": lseries.LValue(1.0 + 1e-12, 0.0, 0.0, 1, "series")}) is None
    assert "differ" in check(lv, {"series": lseries.LValue(1.001, 0.0, 0.0, 1, "series")})
    assert "no series value" in check(lv, {})


def test_oracle_matches_the_library_on_delta():
    import oracle

    f = qseries.fixture("delta", 256)
    phi = testfn.standard_battery()[2]
    lib = lseries.lseries_series(f, phi).value
    ref = oracle.twisted_lvalue(oracle.delta, [1.0], oracle.battery_bump(2))
    assert workloads.rel_diff(lib, ref) < 1e-9
    assert oracle.tau(12) == [int(f.a[n].real) for n in range(1, 13)]


def test_theta_twist_by_conductor_3_character_mod_9_vanishes_on_both_sides():
    """The D = 9 failures compare rounding noise: both sides are zero."""
    import oracle

    f = qseries.fixture("theta", 768)
    chi = specials.characters_mod(9)[3]
    assert chi.conductor == 3
    chi_right = chi.conjugate() * specials.kronecker_character(9)
    phi = testfn.standard_battery()[0]
    bump = oracle.battery_bump(0)
    for ch, test_fn, ob in (
        (chi, phi, bump),
        (chi_right, testfn.slash_W(phi, 1.5, 4), bump.slash(1.5, 4)),
    ):
        mass = oracle.twist_mass(oracle.theta, ch.values, ob)
        assert abs(oracle.twisted_lvalue(oracle.theta, ch.values, ob, mass)) < 1e-14 * mass
        assert abs(lseries.lseries_twisted(f, ch, test_fn).value) < 1e-14 * mass


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.BUILDERS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_percentile_has_ten_samples_beyond_p90():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == pytest.approx(50.5)
    assert sum(v > run.percentile(values, 90) for v in values) == 10
    assert math.isfinite(run.percentile([1.0, 2.0], 90))
