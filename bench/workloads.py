"""The benchmark's four workloads: inputs made from a seed, ops and oracles.

Every workload runs closed-loop from one benchmark process, one op at a time,
in rounds: a round is a fixed list of ops, and a run always measures whole
rounds so that the mix of ops is the same whatever the speed of the code.

``simulate`` and ``analyze`` ops are ``bellsim`` subprocesses; ``exact`` and
``coupling`` ops call the library in that process.  Each op returns an
``OpResult``; its output is checked by an oracle that shares no code with
the layer it checks.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from bellsim import core, coupling, estimators, modelio, scenarios

import tracing

BENCH_DIR = Path(__file__).resolve().parent
SCENARIOS = ("lf", "lhvm-socks", "m2-demo", "m3-demo", "quantum")
SETTINGS = (1, 2)
PAIRS = tuple((x, y) for x in SETTINGS for y in SETTINGS)
WINDOW_NS = 1000
MOMENT_TOL = 1e-9     # bellsim.coupling's documented tolerance

SIZES = {
    "full": {
        "simulate_windows": 80_000,
        "identity_windows": 9_000,
        "analyze_bins": 40_000,
        # Shapes differ, term counts do not (9600 per op, 9504 for m2), so
        # that the median op is not one particular model.
        "exact_models": (("m1", 150, 4), ("m1", 24, 10), ("m2", 66, 6),
                         ("m3", 40, 60), ("m3", 120, 20)),
        "coupling_specs": 400,
    },
    "tiny": {
        "simulate_windows": 5_000,
        "identity_windows": 9_000,
        "analyze_bins": 2_000,
        "exact_models": (("m1", 6, 3), ("m3", 6, 5)),
        "coupling_specs": 40,
    },
}


@dataclass(slots=True)    # coupling keeps tens of thousands per run
class OpResult:
    seconds: float
    items: int
    rss_kib: int
    error: str | None = None
    digest: str = ""
    kind: str = ""
    scale: float = 1.0    # reference-speed seconds per wall second, see speed.py


def _sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(hashlib.sha256(p).digest())
    return h.hexdigest()


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# --------------------------------------------------------------------------
# Subprocesses


class Runner:
    """Starts bellsim processes from the checkout and reaps them with
    ``wait4`` so that each child's peak RSS is known."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run(self, args, log: Path, traced_spans: Path | None = None):
        if traced_spans is None:
            cmd = [sys.executable, "-m", "bellsim.cli", *args]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(traced_spans), *args]
        with log.open("wb") as out:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            # Kill a child that would keep the run past its time limit.
            timer = threading.Timer(max(5.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return start, end, usage.ru_maxrss, proc.returncode


def _cli_error(code, log: Path) -> str | None:
    if code == 0:
        return None
    tail = log.read_text(errors="replace").strip().splitlines()[-3:]
    return f"exit {code}: {' | '.join(tail)}"


# --------------------------------------------------------------------------
# simulate


class Simulate:
    """``bellsim simulate`` over the five shipped scenarios."""

    in_process = False    # ops are bellsim child processes
    name = "simulate"
    item = "window"

    def __init__(self, work: Path, seed: int, size: dict, runner: Runner):
        self.work = work
        self.runner = runner
        self.windows = size["simulate_windows"]
        self.identity_windows = size["identity_windows"]
        self.threads = min(2, os.cpu_count() or 1)
        self.seeds = dict(zip(SCENARIOS, _seeds(seed, len(SCENARIOS))))
        # Hand-written expected tables of each scenario, not the estimators.
        self.expected = {
            name: {(sp.x, sp.y): r
                   for sp, r in scenarios.build_scenario(name).expected_postselected.items()}
            for name in SCENARIOS}
        self.first_digest = {}
        self.sizes = {"windows_per_op": self.windows, "threads": self.threads,
                      "scenarios": list(SCENARIOS), "detection_rate": 0.9,
                      "setting_rule": "random", "scenario_seeds": self.seeds}

    def probe_inputs(self):
        return {"scenarios": list(SCENARIOS)}

    def round(self):
        return list(SCENARIOS)

    def _args(self, scenario, windows, threads, out):
        return ["simulate", "--scenario", scenario, "--windows", str(windows),
                "--seed", str(self.seeds[scenario]), "--setting-rule", "random",
                "--detection-rate", "0.9", "--threads", str(threads), "--out-dir", str(out)]

    def identity_check(self) -> str | None:
        """One op at 1 and at 2 threads must give byte-identical outputs."""
        scenario = "lhvm-socks"
        digests = []
        for threads in (1, 2):
            out = self.work / f"identity-{threads}"
            log = self.work / f"identity-{threads}.log"
            *_, code = self.runner.run(
                self._args(scenario, self.identity_windows, threads, out), log)
            err = _cli_error(code, log)
            if err:
                return f"identity run at {threads} threads: {err}"
            digests.append(_sha256((out / "coincidences.csv").read_bytes(),
                                   (out / "analysis.json").read_bytes()))
        if digests[0] != digests[1]:
            return "outputs differ between 1 and 2 threads"
        return None

    def run_op(self, scenario, tracer=None) -> OpResult:
        out = self.work / scenario
        log = self.work / f"{scenario}.log"
        spans = self.work / f"{scenario}.spans.json" if tracer else None
        start, end, rss, code = self.runner.run(
            self._args(scenario, self.windows, self.threads, out), log, spans)
        result = OpResult((end - start) / 1e9, self.windows, rss, kind=scenario)
        result.error = _cli_error(code, log) or self._check(scenario, out, result)
        if tracer is not None and result.error is None:
            _merge_child(tracer, tracer.record("op", start, end), spans)
        return result

    def _check(self, scenario, out: Path, result: OpResult) -> str | None:
        analysis_bytes = (out / "analysis.json").read_bytes()
        result.digest = _sha256((out / "coincidences.csv").read_bytes(), analysis_bytes)
        if self.first_digest.setdefault(scenario, result.digest) != result.digest:
            return f"{scenario}: outputs changed between identical ops"
        report = json.loads(analysis_bytes)
        if report["run"]["windows"] != self.windows:
            return f"{scenario}: run.windows = {report['run']['windows']}"
        if report["run"]["dropped_a"] or report["run"]["dropped_b"]:
            return f"{scenario}: generated streams had same-bin drops"
        pairs = report["postselected"]["correlations"]["pairs"]
        if sorted((p["x"], p["y"]) for p in pairs) != sorted(self.expected[scenario]):
            return f"{scenario}: setting pairs {[(p['x'], p['y']) for p in pairs]}"
        for p in pairs:
            want = self.expected[scenario][(p["x"], p["y"])]
            for key in ("e_ab", "e_a", "e_b"):
                se = p["se_" + key[2:]]
                if abs(p[key] - float(getattr(want, key))) > 5 * se + 1e-9:
                    return (f"{scenario} {key}({p['x']}, {p['y']}) = {p[key]} is more than "
                            f"5 SE ({se}) from {float(getattr(want, key))}")
        return None


# --------------------------------------------------------------------------
# analyze


def make_clicks(rng: np.random.Generator, n_bins: int):
    """Planted clicks for both stations.

    Per bin: settings uniform over {1, 2}; a +-1 outcome pair with
    correlator +-0.7; each station silent with probability 0.1; 10% of
    clicking sides get one or two extra clicks with random values, and in
    a third of those the second click shares the first one's timestamp so
    that ties are broken by value.  Offsets are uniform inside the bin.
    """
    x = rng.integers(1, 3, n_bins)
    y = rng.integers(1, 3, n_bins)
    corr = np.where((x == 2) & (y == 2), -0.7, 0.7)
    a0 = rng.choice(np.array([-1, 1]), n_bins)
    b0 = np.where(rng.random(n_bins) < (1 + corr) / 2, a0, -a0)
    stations = {}
    for label, setting, first in (("A", x, a0), ("B", y, b0)):
        n_clicks = np.where(rng.random(n_bins) < 0.1, 1 + rng.integers(1, 3, n_bins), 1)
        n_clicks[rng.random(n_bins) < 0.1] = 0
        bins = np.repeat(np.arange(n_bins), n_clicks)
        rank = np.arange(len(bins)) - np.repeat(np.cumsum(n_clicks) - n_clicks, n_clicks)
        offset = rng.integers(0, WINDOW_NS, len(bins))
        tie = (rank == 1) & (rng.random(len(bins)) < 1 / 3)
        offset[tie] = offset[np.flatnonzero(tie) - 1]
        value = np.where(rank == 0, first[bins], rng.choice(np.array([-1, 1]), len(bins)))
        t = bins * WINDOW_NS + offset
        order = np.argsort(t, kind="stable")
        stations[label] = (t[order], setting[bins][order], value[order])
    return stations


def expected_pairing(stations):
    """Numpy reference for fixed-bin pairing and the per-pair estimates."""
    kept = {}
    dropped = 0
    for label, (t, setting, value) in stations.items():
        order = np.lexsort((value, t))        # earliest click, ties by value
        b = t[order] // WINDOW_NS
        uniq, first, counts = np.unique(b, return_index=True, return_counts=True)
        dropped += int(np.sum(counts - 1))
        kept[label] = (uniq, setting[order][first], value[order][first])
    bins = np.union1d(kept["A"][0], kept["B"][0])
    cols = {}
    for label in ("A", "B"):
        uniq, setting, value = kept[label]
        pos = np.searchsorted(uniq, bins)
        hit = (pos < len(uniq)) & (uniq[np.minimum(pos, len(uniq) - 1)] == bins)
        cols[label] = (np.where(hit, setting[np.minimum(pos, len(uniq) - 1)], 0),
                       np.where(hit, value[np.minimum(pos, len(uniq) - 1)], 0))
    (x, a), (y, b) = cols["A"], cols["B"]
    assigned = (x != 0) & (y != 0)
    pairs = {}
    for sx, sy in PAIRS:
        sel = assigned & (x == sx) & (y == sy)
        ga, gb = a[sel].astype(np.int64), b[sel].astype(np.int64)
        n = int(sel.sum())
        post = ga * gb != 0
        stats = {}
        for cond, keep in (("raw", np.ones(n, bool)), ("postselected", post)):
            m = int(keep.sum())
            row = {"n_raw": n, "n_post": int(post.sum())}
            for key, v in (("ab", ga[keep] * gb[keep]), ("a", ga[keep]), ("b", gb[keep])):
                mean = int(v.sum()) / m
                row["e_" + key] = mean
                row["se_" + key] = math.sqrt(float(np.sum((v - mean) ** 2)) / m / m)
            stats[cond] = row
        pairs[(sx, sy)] = stats
    return {"records": len(bins), "unassigned": int((~assigned).sum()),
            "dropped": dropped, "clicks": sum(len(s[0]) for s in stations.values()),
            "pairs": pairs}


def write_timetags(path: Path, t, setting, value):
    lines = ["# timestamp_ns setting outcome"]
    lines += [f"{ti}\t{si}\t{vi:+d}" for ti, si, vi in zip(t.tolist(), setting.tolist(),
                                                         value.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")


class Analyze:
    """``bellsim analyze`` on planted time tags, then on its own CSV."""

    in_process = False    # ops are bellsim child processes
    name = "analyze"
    item = "click read"

    def __init__(self, work: Path, seed: int, size: dict, runner: Runner):
        self.work = work
        self.runner = runner
        stations = make_clicks(np.random.default_rng(seed), size["analyze_bins"])
        self.paths = {label: work / f"stream_{label.lower()}.txt" for label in stations}
        for label, cols in stations.items():
            write_timetags(self.paths[label], *cols)
        self.expected = expected_pairing(stations)
        self.first_digest = None
        self.sizes = {"bins": size["analyze_bins"], "clicks_per_op": self.expected["clicks"],
                      "records": self.expected["records"], "window_ns": WINDOW_NS}

    def probe_inputs(self):
        return {}

    def round(self):
        return ["streams"]

    def run_op(self, _op, tracer=None) -> OpResult:
        out_s, out_c = self.work / "out-streams", self.work / "out-csv"
        steps = (
            ("streams", ["analyze", "--stream-a", str(self.paths["A"]), "--stream-b",
                         str(self.paths["B"]), "--window-ns", str(WINDOW_NS),
                         "--out-dir", str(out_s)]),
            ("csv", ["analyze", "--coincidences", str(out_s / "coincidences.csv"),
                     "--out-dir", str(out_c)]),
        )
        seconds, rss, runs = 0.0, 0, []
        for step, args in steps:
            log = self.work / f"{step}.log"
            spans = self.work / f"{step}.spans.json" if tracer else None
            start, end, step_rss, code = self.runner.run(args, log, spans)
            seconds += (end - start) / 1e9
            rss = max(rss, step_rss)
            runs.append((start, end, spans))
            err = _cli_error(code, log)
            if err:
                return OpResult(seconds, self.expected["clicks"], rss, error=f"{step}: {err}")
        result = OpResult(seconds, self.expected["clicks"], rss, kind="analyze")
        result.error = self._check(out_s, out_c, result)
        if tracer is not None and result.error is None:
            op = tracer.record("op", runs[0][0], runs[-1][1])
            for _start, _end, spans in runs:
                _merge_child(tracer, op, spans)
        return result

    def check_trace(self, metrics) -> str | None:
        """Pairing counts seen by the tracer must match the planted clicks."""
        for key in ("clicks", "records", "dropped", "unassigned"):
            if metrics[f"streams.{key}"] != self.expected[key]:
                return f"traced streams.{key} {metrics[f'streams.{key}']} != {self.expected[key]}"
        return None

    def _check(self, out_s: Path, out_c: Path, result: OpResult) -> str | None:
        csv_bytes = (out_s / "coincidences.csv").read_bytes()
        report_bytes = (out_s / "analysis.json").read_bytes()
        result.digest = _sha256(csv_bytes, report_bytes)
        if (self.first_digest or result.digest) != result.digest:
            return "outputs changed between identical ops"
        self.first_digest = result.digest
        report = json.loads(report_bytes)
        again = json.loads((out_c / "analysis.json").read_bytes())
        if {k: v for k, v in report.items() if k != "run"} != \
                {k: v for k, v in again.items() if k != "run"}:
            return "the --coincidences re-analysis differs from the streams analysis"
        exp = self.expected
        if report["run"]["records"] != exp["records"] or again["run"]["records"] != exp["records"]:
            return f"records {report['run']['records']} != {exp['records']}"
        for cond in ("raw", "postselected"):
            corr = report[cond]["correlations"]
            if corr["n_unassigned"] != exp["unassigned"]:
                return f"{cond} n_unassigned {corr['n_unassigned']} != {exp['unassigned']}"
            if len(corr["pairs"]) != len(PAIRS):
                return f"{cond}: {len(corr['pairs'])} setting pairs"
            for p in corr["pairs"]:
                want = exp["pairs"][(p["x"], p["y"])][cond]
                for key, value in want.items():
                    ok = p[key] == value if key.startswith("n_") else abs(p[key] - value) <= 1e-12
                    if not ok:
                        return f"{cond} {key}({p['x']}, {p['y']}) = {p[key]}, oracle {value}"
            if "chsh" not in report[cond]:
                return f"{cond}: CHSH unavailable"
        return None


# --------------------------------------------------------------------------
# exact


# Every distribution's weights share this denominator, so the size of the
# rationals in enumeration, and with it the cost of a term, does not depend
# on the seed.
DENOMINATOR = 5040


def _weights(rng, n):
    w = 1 + rng.multinomial(DENOMINATOR - n, np.full(n, 1 / n))
    return [Fraction(int(v), DENOMINATOR) for v in w]


def _responses(rng, rows, cols):
    while True:
        r = rng.choice(np.array([-1, 0, 1]), size=(rows, cols), p=[0.4, 0.2, 0.4])
        if (r != 0).any(axis=1).all():
            return r


def make_model(rng, variant: str, k: int, m: int) -> dict:
    """A random finite model as plain arrays.

    Source atoms are (i, perm[i]); product variants give each setting m
    instrument atoms, m3 gives each setting pair a joint over m distinct
    cells of a g x g grid.  Responses take values in {-1, 0, +1}.
    """
    perm = rng.permutation(k)
    model = {"variant": variant, "k": k, "l2": perm, "p_src": _weights(rng, k)}
    if variant == "m3":
        g = math.ceil(math.sqrt(2 * m))
        model["joint"] = {}
        for sp in PAIRS:
            cells = np.sort(rng.choice(g * g, m, replace=False))
            model["joint"][sp] = (cells // g, cells % g, _weights(rng, m))
        model["resp_a"] = {x: _responses(rng, k, g) for x in SETTINGS}
        model["resp_b"] = {y: _responses(rng, k, g) for y in SETTINGS}
    else:
        model["inst_a"] = {x: _weights(rng, m) for x in SETTINGS}
        model["inst_b"] = {y: _weights(rng, m) for y in SETTINGS}
        model["resp_a"] = {x: _responses(rng, k, m) for x in SETTINGS}
        model["resp_b"] = {y: _responses(rng, k, m) for y in SETTINGS}
    return model


def model_text(model: dict, name: str) -> str:
    """The model in bellsim's model-file format, written independently."""
    lines = ["version 1", f"variant {model['variant']}", f"name {name}",
             "settings A 1 2", "settings B 1 2", "begin source"]
    lines += [f"{i} {l2} {p}" for i, (l2, p) in enumerate(zip(model["l2"].tolist(),
                                                              model["p_src"]))]
    lines.append("end")
    if model["variant"] == "m3":
        for (x, y), (lx, ly, q) in model["joint"].items():
            lines.append(f"begin joint-instruments {x} {y}")
            lines += [f"{a} {b} {p}" for a, b, p in zip(lx.tolist(), ly.tolist(), q)]
            lines.append("end")
    else:
        for station in ("a", "b"):
            for s, q in model["inst_" + station].items():
                lines.append(f"begin instruments {station.upper()} {s}")
                lines += [f"{j} {p}" for j, p in enumerate(q)]
                lines.append("end")
    for station in ("a", "b"):
        for s, r in model["resp_" + station].items():
            lines.append(f"begin responses {station.upper()} {s}")
            lines += [f"{i} {j} {int(r[i, j])}" for i in range(r.shape[0])
                      for j in range(r.shape[1])]
            lines.append("end")
    return "\n".join(lines) + "\n"


def outcome_table(model: dict, sp) -> np.ndarray:
    """Float P(a, b | x, y) as a 3x3 array indexed by (a + 1, b + 1)."""
    x, y = sp
    p = np.array([float(v) for v in model["p_src"]])
    l1 = np.arange(model["k"])
    l2 = model["l2"]
    table = np.zeros(9)
    if model["variant"] == "m3":
        lx, ly, q = model["joint"][sp]
        out_a = model["resp_a"][x][l1][:, lx]
        out_b = model["resp_b"][y][l2][:, ly]
        w = np.outer(p, [float(v) for v in q])
        np.add.at(table, ((out_a + 1) * 3 + out_b + 1).ravel(), w.ravel())
        return table.reshape(3, 3)
    per_side = []
    for resp, q, rows in ((model["resp_a"][x], model["inst_a"][x], l1),
                          (model["resp_b"][y], model["inst_b"][y], l2)):
        q = np.array([float(v) for v in q])
        r = resp[rows]
        per_side.append(np.stack([(r == v) @ q for v in (-1, 0, 1)], axis=1))
    return per_side[0].T @ (p[:, None] * per_side[1])


def expectations(table: np.ndarray) -> dict:
    v = np.array([-1.0, 0.0, 1.0])
    ab = np.outer(v, v)
    a = np.broadcast_to(v[:, None], (3, 3))
    b = np.broadcast_to(v[None, :], (3, 3))
    total = table.sum()
    both = np.outer(v != 0, v != 0)
    c = table[both].sum() / total
    sel = np.where(both, table, 0.0)
    return {
        "raw": {"e_ab": (ab * table).sum() / total, "e_a": (a * table).sum() / total,
                "e_b": (b * table).sum() / total, "c_xy": c},
        "postselected": {"e_ab": (ab * sel).sum() / sel.sum(), "e_a": (a * sel).sum() / sel.sum(),
                         "e_b": (b * sel).sum() / sel.sum(), "c_xy": c},
    }


def coupling_criterion(e_ab: dict, e_a: dict, e_b: dict, tol: float = MOMENT_TOL) -> bool:
    """Closed form: consistent marginals, realizable pairs, all |S| <= 2."""
    (x0, x1), (y0, y1) = SETTINGS, SETTINGS
    for x in SETTINGS:
        if abs(float(e_a[(x, y0)]) - float(e_a[(x, y1)])) > tol:
            return False
    for y in SETTINGS:
        if abs(float(e_b[(x0, y)]) - float(e_b[(x1, y)])) > tol:
            return False
    for sp in PAIRS:
        ea, eb, eab = float(e_a[sp]), float(e_b[sp]), float(e_ab[sp])
        for sa in (1, -1):
            for sb in (1, -1):
                if (1 + sa * ea + sb * eb + sa * sb * eab) / 4 < -tol / 4:
                    return False
    es = [float(e_ab[sp]) for sp in PAIRS]
    for signs in np.ndindex(2, 2, 2, 2):
        s = [1 - 2 * i for i in signs]
        if s.count(-1) % 2 == 1 and abs(sum(si * e for si, e in zip(s, es))) > 2 + tol:
            return False
    return True


def witness_error(witness, e_ab: dict, e_a: dict, e_b: dict) -> float:
    """Largest mismatch between a witness over (a_x0, a_x1, b_y0, b_y1)
    and the spec's moments (each station's marginal averaged over the
    remote setting, as the coupling problem states it)."""
    atoms = np.array([atom for atom, _ in witness.items()], dtype=float)
    probs = np.array([float(p) for _, p in witness.items()])
    worst = abs(probs.sum() - 1)
    for i, x in enumerate(SETTINGS):
        target = (float(e_a[(x, 1)]) + float(e_a[(x, 2)])) / 2
        worst = max(worst, abs(probs @ atoms[:, i] - target))
    for j, y in enumerate(SETTINGS):
        target = (float(e_b[(1, y)]) + float(e_b[(2, y)])) / 2
        worst = max(worst, abs(probs @ atoms[:, 2 + j] - target))
        for i, x in enumerate(SETTINGS):
            worst = max(worst, abs(probs @ (atoms[:, i] * atoms[:, 2 + j])
                                   - float(e_ab[(x, y)])))
    return worst


class Exact:
    """Load a model file, enumerate all four pairs both ways, report, and
    decide its raw coupling exactly."""

    in_process = True     # ops run in the benchmark process
    name = "exact"
    item = "enumeration term"

    def __init__(self, work: Path, seed: int, size: dict, runner: Runner):
        rng = np.random.default_rng(seed)
        self.models = []
        for index, (variant, k, m) in enumerate(size["exact_models"]):
            while True:
                model = make_model(rng, variant, k, m)
                tables = {sp: outcome_table(model, sp) for sp in PAIRS}
                if all(expectations(t)["raw"]["c_xy"] > 0 for t in tables.values()):
                    break
            path = work / f"model-{index}-{variant}.model"
            path.write_text(model_text(model, f"bench-{index}"), encoding="ascii")
            if variant == "m3":
                terms = sum(k * len(model["joint"][sp][2]) for sp in PAIRS)
            else:
                terms = sum(k * m * m for _ in PAIRS)
            expected = {sp: expectations(t) for sp, t in tables.items()}
            raw = {key: {sp: expected[sp]["raw"][key] for sp in PAIRS}
                   for key in ("e_ab", "e_a", "e_b")}
            self.models.append({
                "path": path, "kind": "m3" if variant == "m3" else "product",
                "terms": terms, "expected": expected,
                "feasible": coupling_criterion(raw["e_ab"], raw["e_a"], raw["e_b"])})
        self.sizes = {"models": [f"{v} k={k} m={m}" for v, k, m in size["exact_models"]],
                      "terms_per_round": sum(m["terms"] for m in self.models)}

    def probe_inputs(self):
        return {"models": [str(m["path"]) for m in self.models]}

    def round(self):
        return list(range(len(self.models)))

    def run_op(self, index, tracer=None) -> OpResult:
        spec = self.models[index]
        start = time.perf_counter_ns()
        out = _in_process(tracer, self._op, spec["path"])
        end = time.perf_counter_ns()
        result = OpResult((end - start) / 1e9, spec["terms"],
                          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, kind=spec["kind"])
        result.error = self._check(spec, out, result)
        return result

    @staticmethod
    def _op(path):
        # Layer functions are looked up on their modules at call time, so
        # that a traced run reaches the tracer's wrappers.
        model = modelio.load(path)
        out = {"raw": {}, "postselected": {}}
        for sp in model.pairs():
            out["raw"][sp] = core.enumerate_raw(model, sp)
            out["postselected"][sp] = core.enumerate_postselected(model, sp)
        for cond in ("raw", "postselected"):
            cs = estimators.correlation_set_from_exact(
                out[cond], model.settings_a, model.settings_b, cond)
            out[cond + "_chsh"] = estimators.chsh(cs)
            out[cond + "_ns"] = estimators.no_signalling(cs)
        spec = coupling.JointSpec.from_exact_results(out["raw"], model.settings_a,
                                                     model.settings_b)
        out["coupling"] = coupling.coupling_feasibility(spec, exact=True)
        return out

    def _check(self, spec, out, result) -> str | None:
        canon = []
        for cond in ("raw", "postselected"):
            for sp, r in sorted(out[cond].items()):
                want = spec["expected"][tuple(sp)][cond]
                for key in ("e_ab", "e_a", "e_b", "c_xy"):
                    got = getattr(r, key)
                    if not isinstance(got, Fraction):
                        return f"{cond} {key}{tuple(sp)} is not a rational"
                    if abs(float(got) - want[key]) > 1e-9:
                        return f"{cond} {key}{tuple(sp)} = {float(got)}, oracle {want[key]}"
                    canon.append(str(got))
            canon.append(str(out[cond + "_chsh"].s_max_abs))
            canon.append(str(out[cond + "_ns"].max_abs_delta))
        verdict = out["coupling"]
        canon.append(repr((verdict.feasible, verdict.certificate)))
        result.digest = _sha256(" ".join(canon).encode())
        if verdict.feasible != spec["feasible"]:
            return f"coupling verdict {verdict.feasible}, criterion {spec['feasible']}"
        if verdict.feasible:
            raw = out["raw"]
            err = witness_error(verdict.witness, {tuple(k): v.e_ab for k, v in raw.items()},
                                {tuple(k): v.e_a for k, v in raw.items()},
                                {tuple(k): v.e_b for k, v in raw.items()})
            if err > MOMENT_TOL:
                return f"witness misses the moments by {err}"
        return None


# --------------------------------------------------------------------------
# coupling


# Spec kinds by index modulo 20; the mix is fixed so that the cost of a
# batch does not depend on the seed.
SPEC_KINDS = ("consistent",) * 14 + ("inconsistent",) * 3 + ("unrealizable",) * 3


def make_specs(rng: np.random.Generator, n: int) -> list[dict]:
    """Random joint specs.

    70% have consistent marginals and correlators inside each pair's
    realizability envelope; 15% have one marginal that moves with the
    remote setting; 15% have one correlator outside its envelope.  One
    block of 20 specs in every 200, holding the same mix, is decided
    exactly, with values on a 1/256 grid.
    """
    specs = []
    for i in range(n):
        ma = {x: rng.uniform(-1, 1) for x in SETTINGS}
        mb = {y: rng.uniform(-1, 1) for y in SETTINGS}
        e_a = {(x, y): ma[x] for x, y in PAIRS}
        e_b = {(x, y): mb[y] for x, y in PAIRS}
        e_ab = {}
        for x, y in PAIRS:
            lo, hi = abs(ma[x] + mb[y]) - 1, 1 - abs(ma[x] - mb[y])
            e_ab[(x, y)] = rng.uniform(lo, hi)
        kind = SPEC_KINDS[i % len(SPEC_KINDS)]
        sp = PAIRS[rng.integers(4)]
        if kind == "inconsistent":
            shift = rng.uniform(0.05, 0.3)
            e_a[sp] = e_a[sp] - shift if e_a[sp] > 0 else e_a[sp] + shift
        elif kind == "unrealizable":
            lo, hi = abs(e_a[sp] + e_b[sp]) - 1, 1 - abs(e_a[sp] - e_b[sp])
            e_ab[sp] = rng.uniform(hi, 1) if 1 - hi > lo + 1 else rng.uniform(-1, lo)
        exact = (i // len(SPEC_KINDS)) % 10 == 0
        if exact:
            grid = lambda v: Fraction(round(v * 256), 256)   # noqa: E731
            e_ab, e_a, e_b = ({k: grid(v) for k, v in t.items()} for t in (e_ab, e_a, e_b))
        specs.append({"exact": exact, "kind": kind, "e_ab": e_ab, "e_a": e_a, "e_b": e_b,
                      "feasible": coupling_criterion(e_ab, e_a, e_b)})
    return specs


def spec_to_json(spec: dict) -> dict:
    def enc(t):
        return [[x, y, str(v) if isinstance(v, Fraction) else float(v)] for (x, y), v in t.items()]
    return {key: enc(spec[key]) for key in ("e_ab", "e_a", "e_b")}


class Coupling:
    """One feasibility decision per op over a batch of specs."""

    in_process = True     # ops run in the benchmark process
    name = "coupling"
    item = "feasibility decision"

    def __init__(self, work: Path, seed: int, size: dict, runner: Runner):
        self.specs = make_specs(np.random.default_rng(seed), size["coupling_specs"])
        for s in self.specs:
            s["spec"] = coupling.JointSpec(SETTINGS, SETTINGS, s["e_ab"], s["e_a"], s["e_b"])
        self.specs_path = work / "specs.json"
        self.specs_path.write_text(json.dumps([spec_to_json(s) for s in self.specs]))
        self.sizes = {"specs_per_round": len(self.specs),
                      "exact_specs_per_round": sum(s["exact"] for s in self.specs),
                      "kinds": {k: sum(s["kind"] == k for s in self.specs)
                                for k in ("consistent", "inconsistent", "unrealizable")},
                      "criterion_feasible": sum(s["feasible"] for s in self.specs)}

    def probe_inputs(self):
        return {"specs": str(self.specs_path)}

    def round(self):
        return list(range(len(self.specs)))

    def run_op(self, index, tracer=None) -> OpResult:
        s = self.specs[index]
        start = time.perf_counter_ns()
        verdict = _in_process(tracer, coupling.coupling_feasibility, s["spec"],
                              exact=s["exact"])
        end = time.perf_counter_ns()
        result = OpResult((end - start) / 1e9, 1,
                          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          kind="exact" if s["exact"] else "float")
        result.digest = _sha256(repr((verdict.feasible, verdict.certificate)).encode())
        if verdict.feasible != s["feasible"]:
            result.error = (f"spec {index} ({s['kind']}): verdict {verdict.feasible}, "
                            f"criterion {s['feasible']} ({verdict.certificate})")
        elif verdict.feasible:
            err = witness_error(verdict.witness, s["e_ab"], s["e_a"], s["e_b"])
            if err > MOMENT_TOL:
                result.error = f"spec {index}: witness misses the moments by {err}"
        return result


def _in_process(tracer, fn, *args, **kwargs):
    """Call an op in this process, inside an ``op`` span when traced."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call("op", fn, args, kwargs)


def _merge_child(tracer, op_span, spans_path: Path):
    """Hang the spans a bellsim child process wrote under its op span."""
    data = json.loads(spans_path.read_text())
    tracing.merge_child_spans(tracer, data["spans"], op_span)
    tracer.counts.update(data["counts"])


WORKLOADS = {w.name: w for w in (Simulate, Analyze, Exact, Coupling)}
