"""Run the CI workflow's steps on this machine.

    python tools/run_workflow.py

Runs every ``run:`` step of ``.github/workflows/tests.yml`` in order, from
the root of the repository, except the ``Install`` step.  Instead of an
installed package, ``src/`` goes on ``PYTHONPATH`` and a ``maass-lseries``
shim on ``PATH`` calls ``python -m maass_lseries.cli`` with this
interpreter.  A step runs in bash as GitHub Actions runs it: ``bash -e`` by
default, ``bash --noprofile --norc -eo pipefail`` under ``shell: bash``.
Prints one pass or fail line per step, with the last lines of a failing
step's output, and exits 1 when any step fails.

Reading the workflow needs PyYAML, which the project does not declare as a
dependency.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SHELLS = {
    None: ["bash", "-e"],
    "bash": ["bash", "--noprofile", "--norc", "-eo", "pipefail"],
}
TAIL_LINES = 40  # of a failing step's output


def _load(path: pathlib.Path) -> dict:
    try:
        import yaml
    except ImportError:
        sys.exit("run_workflow.py needs PyYAML to read the workflow (pip install pyyaml); "
                 "it is not a dependency of the project")
    return yaml.safe_load(path.read_text())


def _environment(shim_dir: str) -> dict:
    shim = pathlib.Path(shim_dir, "maass-lseries")
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m maass_lseries.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ)
    python_dir = str(pathlib.Path(sys.executable).parent)
    env["PATH"] = os.pathsep.join([shim_dir, python_dir, env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run(step: dict, env: dict) -> tuple[int, str]:
    shell = SHELLS.get(step.get("shell"))
    if shell is None:
        return 1, f"unsupported shell {step['shell']!r}\n"
    with tempfile.NamedTemporaryFile("w", suffix=".sh") as script:
        script.write(step["run"])
        script.flush()
        done = subprocess.run(
            [*shell, script.name], cwd=ROOT / step.get("working-directory", "."), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    return done.returncode, done.stdout


def main() -> int:
    workflow = _load(WORKFLOW)
    failed = []
    with tempfile.TemporaryDirectory() as shim_dir:
        env = _environment(shim_dir)
        for job_name, job in workflow["jobs"].items():
            for step in job.get("steps", []):
                name = step.get("name", "")
                if "run" not in step or name == "Install":
                    continue
                start = time.perf_counter()
                code, output = _run(step, env)
                verdict = "pass" if code == 0 else f"FAIL (exit {code})"
                print(f"[{job_name}] {name}: {verdict} in {time.perf_counter() - start:.1f} s",
                      flush=True)
                if code:
                    tail = output.splitlines(keepends=True)[-TAIL_LINES:]
                    print("".join(f"    {line}" for line in tail))
                    failed.append(name)
    print(f"{len(failed)} step(s) failed" + (f": {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
