"""bellsim benchmark: one command, four workloads, every output checked.

Usage (from the repository root):

    python3 bench/run.py --workload simulate --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``simulate`` (bellsim simulate over the
five shipped scenarios), ``analyze`` (bellsim analyze on planted time tags,
then on its own coincidence CSV), ``exact`` (model files through exact
enumeration, reports and an exact coupling decision) and ``coupling`` (one
feasibility decision per op).  ``--size tiny`` shrinks every input for the
self-test.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics,
with times at the reference speed of ``speed.py``; with ``--trace 1`` it
measures half its time untraced and half with spans around every layer
entry point, and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
details of the run (environment, input sizes, seed, digests of the first
round's outputs, sample counts and the first errors).  Work files go under
``.benchruns/`` in the repository and are removed at the end; a traced
run leaves its spans in ``.benchruns/trace-<workload>-seed<n>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_LIMIT_S = 165          # every run must end within 180 s
SETUP_PROBES = 5

def _ratio(num, den):
    return num / den if den else 0.0


def measure(workload, seconds, stop_at, tracer=None):
    """Run whole rounds for about ``seconds``; returns (results, rounds).

    A further round starts only if at least half of it fits in the time
    left, so that runs average ``seconds`` even when rounds are long.
    """
    gc.collect()
    results = []
    rounds = 0
    meter = speed.Meter(every_cpu=not workload.in_process)
    start = time.monotonic()
    while True:
        ops = workload.round()
        for op in ops:
            if tracer is not None:
                tracer.op = len(results)
            results.append(workload.run_op(op, tracer))
            meter.after(results)
        if rounds:
            # Only the first round's digests are reported.  Dropping the rest
            # keeps the results list out of an in-process workload's peak RSS.
            for r in results[-len(ops):]:
                r.digest = ""
        rounds += 1
        now = time.monotonic()
        if now + (now - start) / rounds / 2 >= start + seconds or now >= stop_at:
            meter.close(results)
            return results, rounds


def setup_seconds(workload, work: Path):
    """Median over fresh interpreters of bellsim's own set-up time."""
    inputs = work / "probe-inputs.json"
    inputs.write_text(json.dumps(workload.probe_inputs()))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name, str(inputs)]
    samples = []
    for i in range(SETUP_PROBES + 1):
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:   # the first probe compiles bytecode and warms the file cache
            samples.append(json.loads(done.stdout.splitlines()[-1]))
    return statistics.median(s["setup_s"] for s in samples), samples


def op_times(results, seconds):
    """``ns_per_item`` and ``op_s.p50`` from per-op ``seconds``."""
    return {"ns_per_item": sum(seconds) * 1e9 / sum(r.items for r in results),
            "op_s.p50": statistics.median(seconds)}


def end_to_end(results, setup_s):
    # Op times at the reference speed (speed.py), so that a host that slows
    # for tens of seconds does not read as slower code.
    return {
        **op_times(results, [r.seconds * r.scale for r in results]),
        "peak_rss_mib": max(r.rss_kib for r in results) / 1024,
        "setup_s": setup_s,
        "ok_frac": sum(r.error is None for r in results) / len(results),
    }


def thread_speedup(workload, seed):
    """``generate_streams`` wall time at 1 thread over 2 threads."""
    from bellsim.scenarios import build_scenario
    from bellsim.streams import RandomSettings, Schedule, generate_streams

    model = build_scenario("quantum").model
    schedule = Schedule.for_windows(workload.windows, 1000, RandomSettings())
    times = {1: [], 2: []}
    for _ in range(3):
        for workers in (1, 2):
            start = time.perf_counter()
            generate_streams(model, schedule, 0.9, seed, workers=workers)
            times[workers].append(time.perf_counter() - start)
    return statistics.median(times[1]) / statistics.median(times[2])


def per_layer(tracer, results, untraced, speedup):
    n = len(results)
    times = tracing.self_times(tracer.spans)
    counts = tracer.counts

    def self_s(name):
        return times.get(name, (0.0, 0.0, 0))[0]

    def calls(name):
        return times.get(name, (0.0, 0.0, 0))[2]

    m = {name + ".s": self_s(name) / n for _module, _attr, name in tracing.SPANNED}
    m["cli.main.s"] = times.get("cli.main", (0.0, 0.0, 0))[1] / n
    m["cli.self.s"] = self_s("cli.main") / n
    m["op.self.s"] = self_s("op") / n
    m["coupling.solve_phase_one.s"] = (self_s("coupling.solve_phase_one.float")
                                       + self_s("coupling.solve_phase_one.exact")) / n
    for key in ("rng.chunk_generator", "estimators.estimate_raw",
                "estimators.estimate_postselected"):
        m[key + ".calls"] = calls(key) / n
    for key in ("rng.map_chunks.calls", "core.validate_model.calls", "streams.clicks",
                "streams.records", "streams.dropped", "streams.unassigned"):
        m[key] = counts[key] / n
    m["streams.pair_coincidences.ns_per_click"] = _ratio(
        self_s("streams.pair_coincidences") * 1e9, counts["streams.clicks"])
    m["streams.dropped_frac"] = _ratio(counts["streams.dropped"], counts["streams.clicks"])
    m["streams.unassigned_frac"] = _ratio(counts["streams.unassigned"], counts["streams.records"])
    m["rng.thread_speedup"] = speedup
    m["estimators.ns_per_record"] = _ratio(
        (self_s("estimators.estimate_raw") + self_s("estimators.estimate_postselected")) * 1e9,
        counts["estimators.records"])

    terms = {"product": 0, "m3": 0}
    ops = {"product": set(), "m3": set()}
    for index, r in enumerate(results):
        if r.kind in terms:
            terms[r.kind] += r.items
            ops[r.kind].add(index)
    m["core.terms"] = sum(terms.values()) / n
    for kind in terms:
        kind_times = tracing.self_times([s for s in tracer.spans if s[5] in ops[kind]])
        enum_s = sum(kind_times.get(f"core.{f}", (0.0,))[0]
                     for f in ("enumerate_raw", "enumerate_postselected"))
        m[f"core.ns_per_term.{kind}"] = _ratio(enum_s * 1e9, terms[kind])
    for tag in ("float", "exact"):
        name = f"coupling.solve_phase_one.{tag}"
        m[f"coupling.ns_per_solve.{tag}"] = _ratio(self_s(name) * 1e9, calls(name))
    m["coupling.feasible_frac"] = _ratio(counts["coupling.feasible"], counts["coupling.decisions"])

    op_total = times["op"][1]
    m["trace.overhead_frac"] = (op_total / n) / (sum(r.seconds for r in untraced)
                                                 / len(untraced)) - 1
    m["trace.self_sum_frac"] = sum(v[0] for v in times.values()) / op_total - 1
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("simulate", "analyze", "exact", "coupling"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    started = time.monotonic()
    os.chdir(ROOT)

    if not (ROOT / "src" / "bellsim" / "__init__.py").is_file():
        print(f"error: no bellsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics the last line carries; a traced run
    # puts every per-layer value it has in the details line as well.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "end_to_end" if args.trace == 0 else "per_layer"]
    # One thread per process outside bellsim's own --threads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads

    # A fixed, relative work path: reports that name their input files stay
    # byte-identical between runs, so their digests can be compared.
    work = Path(".benchruns") / f"work-{args.workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stop_at = started + RUN_LIMIT_S - 40
    try:
        runner = workloads.Runner(ROOT, started + RUN_LIMIT_S)
        workload = workloads.WORKLOADS[args.workload](
            work, args.seed, workloads.SIZES[args.size], runner)
        errors = []
        details = {}
        if args.trace == 0:
            setup_s, details["setup_s.samples"] = setup_seconds(workload, work)
            if args.workload == "simulate":
                err = workload.identity_check()
                details["thread_identity"] = err or "byte-identical at 1 and 2 threads"
                if err:
                    errors.append(err)
            results, rounds = measure(workload, args.seconds, stop_at)
            metrics = end_to_end(results, setup_s)
            details["wall"] = {
                **op_times(results, [r.seconds for r in results]),
                "setup_s": statistics.median(s["wall_s"] for s in details["setup_s.samples"])}
            scales = [r.scale for r in results]
            details["speed.scale"] = {"min": min(scales), "p50": statistics.median(scales),
                                      "max": max(scales)}
        else:
            untraced, _ = measure(workload, args.seconds / 2, stop_at)
            tracer = tracing.Tracer()
            if workload.in_process:
                tracer.install()
            try:
                results, rounds = measure(workload, args.seconds / 2, stop_at, tracer)
            finally:
                tracer.uninstall()
            speedup = (thread_speedup(workload, args.seed)
                       if args.workload == "simulate" else 0.0)
            metrics = per_layer(tracer, results, untraced, speedup)
            if hasattr(workload, "check_trace"):
                errors += filter(None, [workload.check_trace(metrics)])
            details["layers"] = metrics
            trace_path = Path(".benchruns") / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
            details["trace_file"] = str(trace_path)
            results = untraced + results
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors += [r.error for r in results if r.error]
    failed = sum(r.error is not None for r in results)
    first_round = results[:len(workload.round())]
    if len(first_round) > 8:
        digests = {"first_round": workloads._sha256(*(r.digest.encode() for r in first_round))}
    else:
        digests = {f"{i}:{r.kind}": r.digest for i, r in enumerate(first_round)}
    details.update({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "item": workload.item,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "inputs": workload.sizes,
        "ops": len(results), "rounds": rounds, "op_s.p50.samples": len(results),
        "digests": digests,
        "errors": errors[:5],
        "elapsed_s": time.monotonic() - started,
    })
    for e in errors[:5]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"details": details}, sort_keys=True, default=str))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
