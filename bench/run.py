#!/usr/bin/env python3
"""Benchmark of the maass_lseries library.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.
``--workload`` is one of ``fe_delta_twists``, ``converse_theta`` and
``harmonic_kernels``, or ``all`` to run each in turn.  A run sets up the
workload, then runs whole rounds of its ops until ``--seconds`` have passed,
checks every output, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, taken from traced rounds that alternate with untraced ones.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
WORKLOADS = ("fe_delta_twists", "converse_theta", "harmonic_kernels")
SETUP_PROBES = 4  # set-ups in fresh processes, besides the run's own
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _use_library_source() -> None:
    """Import the library from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "maass_lseries", "__init__.py")):
        sys.exit(f"error: library source not found under {SRC}")
    sys.path.insert(0, SRC)


def provenance() -> str:
    import numpy

    lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "maass_lseries")):
        for fn in files:
            if fn.endswith(".py"):
                with open(os.path.join(dirpath, fn)) as fh:
                    lines += sum(1 for _ in fh)
    return (f"python {platform.python_version()}, numpy {numpy.__version__}, "
            f"nproc {os.cpu_count()}, src lines {lines}")


def set_up(name: str, seed: int, make_tracer=None):
    """Import the library and build the workload.

    Returns (workload, seconds, tracer).  With ``make_tracer`` the tracer is
    made and installed right after the import, so set-up is traced too.
    """
    t0 = time.perf_counter()
    import maass_lseries  # noqa: F401  (the import is part of set-up)

    tracer = None
    if make_tracer is not None:
        tracer = make_tracer()
        tracer.install()
    import workloads

    wl = workloads.build(name, seed)
    return wl, time.perf_counter() - t0, tracer


def probe_set_up(name: str, seed: int) -> float:
    """Set-up time measured in a fresh process, so no cache is warm."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=170, cwd=ROOT, check=True,
    )
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


class Round:
    """One pass over every op: timings, outputs and failures."""

    def __init__(self, wl):
        self.latencies = []
        self.failures = {}  # op name -> (reason, known fault or None)
        outcomes = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for op in wl.ops:
            a = time.perf_counter()
            try:
                res, exc = op.run(), None
            except Exception as e:  # a raising op is a failed op, not a failed run
                res, exc = None, e
            self.latencies.append(time.perf_counter() - a)
            outcomes.append((op, res, exc))
        self.wall = time.perf_counter() - t0
        self.cpu = time.process_time() - cpu0
        self.results = {op.name: res for op, res, exc in outcomes if exc is None}
        for op, res, exc in outcomes:
            reason = f"{type(exc).__name__}: {exc}" if exc is not None else op.verdict(res, self.results)
            if reason is not None:
                self.failures[op.name] = (reason, op.known_fault(exc))


def run_rounds(wl, seconds: float, between=None) -> list[Round]:
    """Whole rounds until ``seconds`` have passed, at least one."""
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(Round(wl))
        if between is not None:
            between(rounds[-1])
    return rounds


def check_oracle(wl, first: Round, seed: int) -> list[tuple[bool, str]]:
    """Compare a seeded sample of the first round's L-values with the oracle.

    A value passes when it is within 1e-9 relative of the oracle's, plus
    the error budget the library reported for it.
    """
    import workloads

    candidates = [op for op in wl.ops if op.oracle is not None
                  and op.name in first.results and op.name not in first.failures]
    candidates.sort(key=lambda op: op.name)
    rng = random.Random(seed + 1)
    lines = []
    for op in rng.sample(candidates, min(wl.oracle_sample, len(candidates))):
        for lib, ref, budget in op.oracle(first.results[op.name]):
            diff = abs(lib - ref)
            ok = bool(diff <= workloads.ORACLE_REL_TOL * max(abs(lib), abs(ref)) + budget)
            lines.append((ok, f"oracle {op.name}: library {lib:.15g} oracle {ref:.15g} "
                              f"rel diff {workloads.rel_diff(lib, ref):.1e} budget {budget:.1e}"))
    return lines


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(rounds: list[Round], setups: list[float], peak_kb: int) -> dict:
    lat_ms = [1e3 * x for r in rounds for x in r.latencies]
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r.wall for r in rounds),
        "cpu_s": statistics.median(r.cpu for r in rounds),
        "op_p50_ms": percentile(lat_ms, 50),
        "op_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": peak_kb / 1024.0,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        import tracer as tracing

        def make_tracer():
            import maass_lseries
            from maass_lseries import form, lseries, qseries, specials, testfn, verify

            import workloads

            layers = [specials, qseries, testfn, form, lseries, verify]
            spaces = [m for n, m in sorted(sys.modules.items()) if n.startswith("maass_lseries")]
            return tracing.Tracer(layers, spaces + [workloads, maass_lseries])

        wl, setup_s, tr = set_up(name, seed, make_tracer)
        tr.uninstall()
        setup_rec = tr.take()
        plain, traced, recs = [], [], []

        def traced_round(r):
            plain.append(r)
            tr.install()
            try:
                traced.append(Round(wl))
            finally:
                tr.uninstall()
            recs.append(tr.take())

        warm = Round(wl)  # the first round also pays for first-touch allocations
        rounds = run_rounds(wl, seconds, traced_round)
        rounds = [warm] + plain + traced
        os.makedirs(TRACE_DIR, exist_ok=True)
        setup_rec.write(os.path.join(TRACE_DIR, f"{name}-{seed}-setup.tsv.gz"))
        recs[0].write(os.path.join(TRACE_DIR, f"{name}-{seed}-round.tsv.gz"))
        values = tracing.combine(tracing.layer_metrics(setup_rec),
                                 [tracing.layer_metrics(r) for r in recs])
        values["trace.overhead_s"] = (statistics.median(r.wall for r in traced)
                                      - statistics.median(r.wall for r in plain))
        units = tracing.metric_units()
    else:
        wl, setup_s, _ = set_up(name, seed)
        rounds = run_rounds(wl, seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setups = [setup_s] + [probe_set_up(name, seed) for _ in range(SETUP_PROBES)]
        values = end_to_end(rounds, setups, peak_kb)
        units = END_TO_END_UNITS

    import workloads

    correct = True
    attempted = len(wl.ops) * len(rounds)
    failed = sum(len(r.failures) for r in rounds)
    seen = {}
    for r in rounds:
        for op_name, (reason, fault) in r.failures.items():
            seen.setdefault(op_name, [reason, fault, 0])[2] += 1
    for op_name, (reason, fault, times) in sorted(seen.items()):
        print(f"FAILED {op_name} x{times}: {reason}"
              + (f" [known fault: {fault}]" if fault else " [UNEXPECTED]"))
        correct = correct and fault is not None
    for ok, line in check_oracle(wl, rounds[0], seed):
        print(("" if ok else "MISMATCH ") + line)
        correct = correct and ok
    if wl.control is not None:
        witness, detail = wl.control()
        detected = witness > workloads.CONTROL_WITNESS
        print(f"negative control {'detected' if detected else 'NOT DETECTED'}: {detail}")
        correct = correct and detected
    print(f"provenance: {provenance()}")
    print(f"workload {name} seed {seed}: {len(rounds)} rounds of {len(wl.ops)} ops, "
          f"attempted {attempted}, failed {failed}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process; metrics prefixed by workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900, cwd=ROOT, check=True,
        )
        print(proc.stdout, end="")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    _use_library_source()
    if args.probe_setup:
        _, setup_s, _ = set_up(args.workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
