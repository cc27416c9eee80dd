"""Self-test of the benchmark at tiny input sizes.

Usage (from the repository root): python3 bench/selftest.py

For every workload, including the two that BENCHMARK.json does not list
(see README.md): an untraced run must print every end-to-end metric of
BENCHMARK.json with its unit and fail no op; two traced runs must print
every per-layer metric of BENCHMARK.json with its unit, give spans for
the layers the workload exercises, and agree exactly on every count.  Finally the
benchmark must refuse to run, without printing a result, in a directory
that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Per-layer times that must be non-zero on each workload.
EXERCISED = {
    "simulate": ("cli.main.s", "cli.self.s", "scenarios.build_scenario.s",
                 "streams.generate_streams.s", "streams.schedule_settings.s",
                 "streams.pair_coincidences.s", "streams.write_coincidence_csv.s",
                 "rng.chunk_generator.s", "estimators.estimate_raw.s",
                 "estimators.estimate_postselected.s", "estimators.chsh.s",
                 "estimators.no_signalling.s", "rng.thread_speedup"),
    "analyze": ("cli.main.s", "cli.self.s", "streams.ingest_timetag_file.s",
                "streams.pair_coincidences.s", "streams.write_coincidence_csv.s",
                "streams.read_coincidence_csv.s", "estimators.estimate_raw.s",
                "estimators.estimate_postselected.s", "streams.dropped_frac",
                "streams.unassigned_frac"),
    "exact": ("modelio.load.s", "core.enumerate_raw.s", "core.enumerate_postselected.s",
              "core.ns_per_term.product", "core.ns_per_term.m3",
              "estimators.correlation_set_from_exact.s", "estimators.chsh.s",
              "coupling.coupling_feasibility.s", "coupling.ns_per_solve.exact"),
    "coupling": ("coupling.coupling_feasibility.s", "coupling.solve_phase_one.s",
                 "coupling.ns_per_solve.float", "coupling.ns_per_solve.exact",
                 "coupling.feasible_frac"),
}

# Per-layer values fixed by the inputs, which must repeat exactly.
COUNTS = ("streams.clicks", "streams.records", "streams.dropped", "streams.unassigned",
          "streams.dropped_frac", "streams.unassigned_frac", "rng.chunk_generator.calls",
          "rng.map_chunks.calls", "estimators.estimate_raw.calls",
          "estimators.estimate_postselected.calls", "core.terms",
          "core.validate_model.calls", "coupling.feasible_frac")


def run(cwd, workload, trace, seed=3):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done, label):
    """(metrics of the last line, details of the line before it)."""
    if done.returncode != 0:
        raise AssertionError(f"{label}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{label}: {result['failed']} of {result['attempted']} "
                             f"ops failed\n{done.stderr}")
    return result["metrics"], json.loads(lines[-2])["details"]


def check_names(metrics, declared, label):
    got = {name: m["unit"] for name, m in metrics.items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise AssertionError(f"{label}: metrics {got} differ from BENCHMARK.json {want}")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(EXERCISED)
    for workload in names:
        metrics, _ = result_of(run(ROOT, workload, 0), f"{workload} untraced")
        check_names(metrics, bench["end_to_end"], workload)
        if metrics["ok_frac"]["value"] != 1.0:
            raise AssertionError(f"{workload}: ok_frac {metrics['ok_frac']['value']}")
        traced = [result_of(run(ROOT, workload, 1), f"{workload} traced") for _ in range(2)]
        check_names(traced[0][0], bench["per_layer"], f"{workload} traced")
        layers = [details["layers"] for _, details in traced]
        for name in EXERCISED[workload]:
            if not layers[0][name] > 0:
                raise AssertionError(f"{workload}: {name} is {layers[0][name]}")
        for name in COUNTS:
            if layers[0][name] != layers[1][name]:
                raise AssertionError(f"{workload}: count {name} differs: "
                                     f"{layers[0][name]} != {layers[1][name]}")
        print(f"ok {workload}")

    bare = ROOT / ".benchruns" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run(bare, names[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        raise AssertionError("the benchmark ran without bellsim's sources")
    print("ok refuses to run without sources")


if __name__ == "__main__":
    main()
