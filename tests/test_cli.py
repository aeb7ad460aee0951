"""Command-line interface: subcommands, exit codes, output schemas."""

import json
import os
import subprocess
import sys

import pytest

from maass_lseries import cli
from maass_lseries.cli import main
from maass_lseries.errors import AccuracyError, RangeOverflowError
from maass_lseries.form import form_from_dict


def run(argv):
    return main(argv)


def test_fixtures_export_j744(tmp_path, capsys):
    out = tmp_path / "j744.json"
    code = run(["fixtures", "export", "--name", "j744", "--precision", "32",
                "-o", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    a = {n: complex(re, im) for n, re, im in payload["a"]}
    assert a[-1] == 1 and a[1] == 196884
    assert payload["weight2"] == 0 and payload["level"] == 1
    # the written file round-trips through the schema loader
    f = form_from_dict(payload)
    assert f.n0 == 1


def test_fixtures_export_unknown_name(capsys):
    assert run(["fixtures", "export", "--name", "nope"]) == 2


def test_fixtures_export_past_the_double_range_exits_4(capsys):
    # j744's coefficient of q^3249 exceeds the double range
    assert run(["fixtures", "export", "--name", "j744", "--precision", "3400"]) == 4
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("numerical error: ") and "precision <= 3250" in out.err


def test_lseries_fixture_battery(tmp_path):
    out = tmp_path / "lseries.json"
    code = run([
        "lseries", "--fixture", "delta", "--precision", "256",
        "--battery-count", "10", "-o", str(out),
    ])
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 10
    for r in records:
        assert r["rel_disagreement"] < 1e-9
        assert "series" in r and "integral" in r


def test_lseries_classical(tmp_path):
    out = tmp_path / "cl.json"
    code = run([
        "lseries", "--fixture", "delta", "--precision", "256",
        "--classical", "--s", "12", "-o", str(out),
    ])
    assert code == 0
    (rec,) = json.loads(out.read_text())
    assert rec["kind"] == "classical"
    from maass_lseries.qseries import fixture_qexp

    d = fixture_qexp("delta", 256)
    oracle = sum(d.coefficient(n) / n ** 12.0 for n in range(1, 256))
    assert abs(rec["value"][0] - oracle) < 1e-10


def test_lseries_csv_output(tmp_path):
    out = tmp_path / "table.csv"
    code = run([
        "lseries", "--fixture", "theta", "--precision", "256",
        "--battery-count", "3", "-o", str(out), "--format", "csv",
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert "rel_disagreement" in lines[0]


def test_fe_check_fixture_delta(tmp_path):
    out = tmp_path / "fe.json"
    code = run([
        "fe-check", "--fixture", "delta", "--precision", "256",
        "--battery-count", "6", "-o", str(out),
    ])
    assert code == 0
    records = json.loads(out.read_text())
    assert len(records) == 12  # 6 members x 2 equations
    assert all(r["pass"] for r in records)


def test_fe_check_report_does_not_depend_on_the_blas_thread_count():
    # every product stays below the sizes at which BLAS starts threads, so
    # one thread and two sum every entry alike
    src = os.path.dirname(os.path.dirname(cli.__file__))

    def report(threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "maass_lseries.cli", "fe-check", "--fixture", "delta", "--dmax", "5"]
        return subprocess.run(argv, env=env, capture_output=True, check=True, timeout=300).stdout

    one = report("1")
    assert len(json.loads(one)) == 200
    assert report("2") == one


def test_fe_check_fixture_theta(tmp_path):
    out = tmp_path / "fe.json"
    code = run([
        "fe-check", "--fixture", "theta", "--battery-count", "4", "-o", str(out),
    ])
    assert code == 0


def test_fe_check_goes_on_past_a_membership_failure(tmp_path):
    # theta's outer bumps cannot be certified at D = 7 and 9: those instances
    # become error records, every other instance keeps its two reports
    out = tmp_path / "fe.json"
    code = run(["fe-check", "--fixture", "theta", "--dmax", "9", "-o", str(out)])
    assert code == cli.EXIT_DOMAIN_ERROR == 3
    records = json.loads(out.read_text())
    errors = [r for r in records if "error" in r]
    assert len(records) - len(errors) == 344 and len(errors) == 18
    for r in errors:
        assert set(r) == {"D", "chi", "phi", "side", "error"}
        assert r["D"] in (7, 9) and r["side"] == "right"
        assert r["error"].startswith("right side: membership series for")
    # a membership error outranks a failed report: 3, not 1
    assert any(not r["pass"] for r in records if "pass" in r)


def test_fe_check_perturbed_input_fails(tmp_path):
    # export delta, nudge one coefficient, expect exit 1 with a witness row
    src = tmp_path / "delta.json"
    run(["fixtures", "export", "--name", "delta", "--precision", "256", "-o", str(src)])
    payload = json.loads(src.read_text())
    for row in payload["a"]:
        if row[0] == 2:
            row[1] *= 1 + 1e-3
    bad = tmp_path / "perturbed_delta.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "fe.json"
    code = run(["fe-check", "--input", str(bad), "-o", str(out)])
    assert code == 1
    records = json.loads(out.read_text())
    assert any(not r["pass"] for r in records)


def test_fe_check_empty_coefficient_file(tmp_path):
    bad = tmp_path / "empty.json"
    bad.write_text("{}")
    assert run(["fe-check", "--input", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert run(["fe-check", "--input", str(missing)]) == 2


def test_converse_fixture_delta(tmp_path):
    out = tmp_path / "conv.json"
    code = run([
        "converse", "--fixture", "delta", "--precision", "256",
        "--dcap", "1", "--battery-count", "6", "-o", str(out),
    ])
    assert code == 0
    (rec,) = json.loads(out.read_text())
    assert rec["verdict"] == "consistent-with-modular"
    assert rec["worst_rel_residual"] < 1e-8
    assert rec["unreliable"] == 0  # 12 reports, every budget inside the tolerance


def test_converse_inconclusive_exit_code(tmp_path):
    # theta's only failures up to D = 9 are unreliable (a vanishing twist)
    out = tmp_path / "conv.json"
    code = run([
        "converse", "--fixture", "theta", "--dcap", "9", "--battery-count", "2",
        "-o", str(out),
    ])
    assert code == cli.EXIT_INCONCLUSIVE == 5
    (rec,) = json.loads(out.read_text())
    assert rec["verdict"] == "inconclusive"
    assert rec["unreliable"] >= len(rec["failures"]) == 4


def test_summation_check(tmp_path):
    out = tmp_path / "sum.json"
    code = run([
        "summation-check", "--terms", "gf,mf,decomp", "--k", "12",
        "--nmax", "3", "-o", str(out),
    ])
    assert code == 0
    records = json.loads(out.read_text())
    assert all(r["pass"] for r in records)
    kinds = {r["term"] for r in records}
    assert kinds == {"gf", "mf", "decomp"}


def test_domain_error_exit_code(tmp_path):
    # classical value below the abscissa is a domain error: exit 3
    code = run([
        "lseries", "--fixture", "delta", "--precision", "64",
        "--classical", "--s", "3",
    ])
    assert code == 3


def test_unusable_requests_are_input_errors(capsys):
    # a value of s that is not a finite number is an input error, not a failed check
    for s in ("abc", "nan"):
        assert run(["lseries", "--fixture", "delta", "--precision", "64",
                    "--classical", "--s", s]) == 2
    # unknown term names, and requests that yield no record, print nothing
    assert run(["summation-check", "--terms", "foo"]) == 2
    assert run(["summation-check", "--terms", "gf,foo", "--nmax", "1"]) == 2
    assert run(["summation-check", "--terms", "gf", "--nmax", "0"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("input error: ") == 5


def test_config_invariants_are_input_errors():
    assert run(["lseries", "--fixture", "delta", "--battery-count", "0"]) == 2
    assert run(["fe-check", "--fixture", "delta", "--tol=-1e-8"]) == 2
    assert run(["converse", "--fixture", "delta", "--dcap", "0"]) == 2
    assert run(["fe-check", "--fixture", "delta", "--dmax", "0"]) == 2


@pytest.mark.parametrize("error", [AccuracyError("did not converge"), RangeOverflowError("too big")])
def test_numerical_errors_exit_4(monkeypatch, capsys, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "lseries_series", failing)
    code = run(["lseries", "--fixture", "delta", "--precision", "64", "--battery-count", "1"])
    assert code == cli.EXIT_NUMERICAL_ERROR == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1

