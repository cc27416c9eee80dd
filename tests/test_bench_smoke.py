"""Smoke test of the benchmark's traced path at tiny size.

``bench/``, ``src/`` and ``BENCHMARK.json`` are copied into a temporary
directory and ``bench/run.py --trace 1 --size tiny`` runs there, so the
work files land in the copy.  The ``analyze`` workload's trace check
compares the tracer's click, record, drop and unassigned counts with the
planted data, which guards the tracing hooks against changes in the stream
and record types.  The ``exact`` workload runs its traced op through the
tracer's wrappers of ``core.enumerate_raw`` and ``enumerate_postselected``
and checks every enumerated Fraction against a float oracle.  The
``coupling`` workload runs through the wrappers of
``coupling_feasibility`` and ``solve_phase_one``, so every workload's
traced path runs here.  Each exact op loads a fresh model, which is
validated once however many pairs it enumerates.

The tracer finds the solver by its name, ``coupling.solve_phase_one``,
and tells an exact solve from a float one by its ``exact=`` keyword, so a
renamed solver or an ``exact`` passed by position would leave a
``coupling.ns_per_solve`` metric at 0: the ``coupling`` run must report
both modes and the ``exact`` run its exact solves.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ("simulate", "analyze", "exact", "coupling"))
def test_traced_tiny_run_passes_its_checks(workload, tmp_path):
    for name in ("bench", "src"):
        shutil.copytree(REPO / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".benchruns"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", "1", "--size", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=150)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["correct"], done.stderr
    assert result["attempted"] > 0
    metrics = result["metrics"]
    if workload == "exact":
        layers = json.loads(done.stdout.splitlines()[-2])["details"]["layers"]
        assert layers["core.validate_model.calls"] == 1
        assert metrics["coupling.ns_per_solve.exact"]["value"] > 0
    if workload == "coupling":
        assert metrics["coupling.ns_per_solve.exact"]["value"] > 0
        assert metrics["coupling.ns_per_solve.float"]["value"] > 0
