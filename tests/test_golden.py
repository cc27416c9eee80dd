"""Golden outputs of ``bellsim simulate`` and ``bellsim analyze``.

Every scenario runs under every setting rule for 5000 windows, which
crosses the 4096-window chunk edge, at a fixed seed; ``analyze
--coincidences`` then re-reads the run's ``coincidences.csv``.  The sha256
digest of every file the two commands write must equal the one committed
in ``golden_digests.json``.

A second set of cases guards the time-tag side: ``simulate
--write-streams`` writes both stations' files, and ``analyze
--stream-a/--stream-b`` pairs them again at the run's window width.  At
three times that width bins hold several windows: under the fixed rule
that gives multi-click bins and same-bin drops, under the random rule a
setting conflict whose exit code and message are pinned.  A ``--threads
2`` simulate per scenario must reproduce the one-thread files byte for
byte.

A third set pins the Monte Carlo draws themselves, below the CLI:
``simulate_trials`` for every pair of every scenario and of two models
outside the scenarios' response tables with one and two workers, a run of
``sample_trial`` calls together with the generator's next draw, and
``generate_streams`` for those two models.  One has a sampler-backed
source and takes the per-element path, one draw at a time.  The other is
finite with plain-callable responses: it is tabulated like a table model,
and its digests, written while it took the per-element path, pin that the
tabulation draws the same doubles in the same order.

A fourth set pins the commands no simulate run reaches: ``check-coupling``,
float and ``--exact``, on the raw and post-selected specs of every
scenario, the lf joint's moments, the PR box, a spec with an unrealizable
pair and a dozen random consistent specs (stdout and ``coupling.json``), and ``scenario --name`` for every scenario
(stdout, ``.model`` and ``.expected.json``).

After a change that alters output on purpose, rewrite the digests with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from bellsim.cli import main
from bellsim.core import (
    enumerate_postselected,
    enumerate_raw,
    pair_order,
    sample_trial,
    simulate_trials,
)
from bellsim.coupling import (
    JointSpec,
    joint_moments,
    lf_coupling,
    random_consistent_spec,
    save_jointspec,
)
from bellsim.scenarios import build_scenario, scenario_names
from bellsim.streams import RandomSettings, Schedule, generate_streams

from helpers import callable_response_model, sampler_model

DIGESTS = Path(__file__).with_name("golden_digests.json")
RULES = ("fixed", "round-robin", "random")
WINDOWS = 5000
WINDOW_NS = 1000     # the CLI's default width, which the simulate runs use
SEED = 1964


def _simulate_args(scenario: str, rule: str, out: Path) -> list[str]:
    args = ["simulate", "--scenario", scenario, "--windows", str(WINDOWS),
            "--setting-rule", rule, "--seed", str(SEED), "--out-dir", str(out)]
    if rule == "fixed":
        args += ["--x", "1", "--y", "1"]
    return args


def _run(root: Path, *commands) -> list[tuple[int, str]]:
    """Run CLI commands inside ``root``; (exit code, stderr) of each.

    Paths handed to the CLI are relative to ``root``, so the reports, which
    name their input file, do not depend on where ``root`` is.
    """
    results = []
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in commands:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                results.append((main(argv), err.getvalue()))
    finally:
        os.chdir(cwd)
    return results


def _digests(directory: Path) -> dict:
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


def run_case(root: Path, scenario: str, rule: str) -> dict:
    """Run one scenario under one rule inside ``root``; digest every output."""
    case = Path(scenario, rule)
    analyze = ["analyze", "--coincidences", str(case / "simulate" / "coincidences.csv"),
               "--out-dir", str(case / "analyze")]
    for command, (code, _) in zip(("simulate", "analyze"), _run(
            root, _simulate_args(scenario, rule, case / "simulate"), analyze)):
        assert code == 0, f"{scenario}, rule {rule}: {command} failed"
    return _digests(root / case)


def run_stream_case(root: Path, scenario: str, rule: str) -> dict:
    """Write the time-tag files, pair them again at 1x and 3x the width.

    Digests every output; a failing 3x analyze contributes its exit code
    and stderr instead.
    """
    case = Path("streams", scenario, rule)
    streams = [f"--stream-{s}={case / 'simulate' / f'stream_{s}.txt'}" for s in "ab"]
    commands = {
        "simulate": _simulate_args(scenario, rule, case / "simulate") + ["--write-streams"],
        "analyze": ["analyze", *streams, "--window-ns", str(WINDOW_NS),
                    "--out-dir", str(case / "analyze")],
    }
    if rule != "round-robin":
        commands["analyze-wide"] = ["analyze", *streams, "--window-ns", str(3 * WINDOW_NS),
                                    "--out-dir", str(case / "analyze-wide")]
    got = {}
    for command, (code, err) in zip(commands, _run(root, *commands.values())):
        if code != 0:
            got[f"{command}/exit"] = f"{code} {err}"
    got.update(_digests(root / case))
    return got


CASES = [(scenario, rule) for scenario in scenario_names() for rule in RULES]
IDS = [f"{s}-{r}" for s, r in CASES]


def _check(got: dict, want: dict, label: str) -> None:
    assert sorted(got) == sorted(want), f"{label}: set of outputs differs"
    for name in want:
        assert got[name] == want[name], f"{label}: {name} differs"


@pytest.mark.parametrize("scenario, rule", CASES, ids=IDS)
def test_outputs_match_golden_digests(scenario, rule, tmp_path):
    want = json.loads(DIGESTS.read_text())[f"{scenario}/{rule}"]
    _check(run_case(tmp_path, scenario, rule), want, f"{scenario}, rule {rule}")


@pytest.mark.parametrize("scenario, rule", CASES, ids=IDS)
def test_stream_files_match_golden_digests(scenario, rule, tmp_path):
    want = json.loads(DIGESTS.read_text())[f"streams/{scenario}/{rule}"]
    got = run_stream_case(tmp_path, scenario, rule)
    _check(got, want, f"{scenario}, rule {rule}, streams")
    if rule == "random":
        code, _, err = want["analyze-wide/exit"].partition(" ")
        assert code == "4" and err.startswith(
            f"error: streams/{scenario}/{rule}/simulate/stream_"), err


@pytest.mark.parametrize("scenario", scenario_names())
def test_two_threads_write_the_same_bytes(scenario, tmp_path):
    want = json.loads(DIGESTS.read_text())[f"streams/{scenario}/random"]
    out = Path("threads-2")
    [(code, _)] = _run(tmp_path, _simulate_args(scenario, "random", out)
                       + ["--write-streams", "--threads", "2"])
    assert code == 0
    got = _digests(tmp_path / out)
    assert got == {name[len("simulate/"):]: digest for name, digest in want.items()
                   if name.startswith("simulate/")}, scenario


# --------------------------------------------------------------------------
# Monte Carlo draws

MC_MODELS = {**{name: lambda name=name: build_scenario(name).model for name in scenario_names()},
             "sampler-backed": sampler_model, "callable-response": callable_response_model}
MC_TRIALS = 5000     # crosses the 4096-trial chunk edge


def _sha(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return digest.hexdigest()


def simulate_trials_digests(model, workers: int) -> dict:
    return {f"{sp.x},{sp.y}": _sha(*simulate_trials(model, sp, MC_TRIALS, SEED, workers=workers))
            for sp in model.pairs()}


def sample_trial_digest(model) -> str:
    generator = np.random.Generator(np.random.PCG64(SEED))
    trials = [sample_trial(model, sp, generator) for sp in model.pairs() for _ in range(5)]
    return _sha(trials, generator.random())


def generate_streams_digest(model, workers: int) -> str:
    schedule = Schedule.for_windows(MC_TRIALS, 10, RandomSettings())
    return _sha(*((s.labels, s.t, s.setting, s.value)
                  for s in generate_streams(model, schedule, 0.8, SEED, workers=workers)))


def mc_digests() -> dict:
    out = {}
    for name, build in MC_MODELS.items():
        model = build()
        out[f"mc/simulate_trials/{name}"] = simulate_trials_digests(model, 1)
        out[f"mc/sample_trial/{name}"] = sample_trial_digest(model)
        if name in ("sampler-backed", "callable-response"):
            out[f"mc/generate_streams/{name}"] = generate_streams_digest(model, 1)
    return out


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("name", MC_MODELS)
def test_simulate_trials_match_golden_digests(name, workers):
    want = json.loads(DIGESTS.read_text())[f"mc/simulate_trials/{name}"]
    assert simulate_trials_digests(MC_MODELS[name](), workers) == want


@pytest.mark.parametrize("name", MC_MODELS)
def test_sample_trial_matches_golden_digest(name):
    want = json.loads(DIGESTS.read_text())[f"mc/sample_trial/{name}"]
    assert sample_trial_digest(MC_MODELS[name]()) == want


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("name", ("sampler-backed", "callable-response"))
def test_per_element_generation_matches_golden_digest(name, workers):
    want = json.loads(DIGESTS.read_text())[f"mc/generate_streams/{name}"]
    assert generate_streams_digest(MC_MODELS[name](), workers) == want


# --------------------------------------------------------------------------
# Coupling verdicts and scenario exports


def coupling_specs() -> dict:
    """The specs whose check-coupling outputs are pinned, by name."""
    specs = {}
    for name in scenario_names():
        model = build_scenario(name).model
        for conditioning, enumerate_ in (("raw", enumerate_raw),
                                         ("postselected", enumerate_postselected)):
            results = {sp: enumerate_(model, sp) for sp in model.pairs()}
            specs[f"{name}-{conditioning}"] = JointSpec.from_exact_results(
                results, model.settings_a, model.settings_b)
    specs["lf-joint"] = joint_moments(lf_coupling(), (1, -1), (1, -1))
    pairs = pair_order((1, 2), (1, 2))
    zeros = dict.fromkeys(pairs, 0)
    specs["pr-box"] = JointSpec((1, 2), (1, 2), dict(zip(pairs, (1, 1, 1, -1))), zeros, zeros)
    specs["unrealizable"] = JointSpec(
        (1, 2), (1, 2), dict(zip(pairs, (0.9, 0, 0, 0))),
        {sp: 0.9 if sp.x == 1 else 0 for sp in pairs}, {sp: -0.9 if sp.y == 1 else 0 for sp in pairs})
    for k in range(12):
        specs[f"random-{k}"] = random_consistent_spec(random.Random(k),
                                                      zero_marginals=k % 3 == 0)
    return specs


COUPLING_MODES = ("float", "exact")


def _digests_with_stdout(argv: list[str], out: Path) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv + ["--out-dir", str(out)]) == 0, argv
    return {"stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest(), **_digests(out)}


def run_coupling_case(root: Path, name: str, spec: JointSpec, mode: str) -> dict:
    """``check-coupling`` on the spec saved as a file; digests of stdout and
    ``coupling.json``."""
    path = root / f"{name}.json"
    save_jointspec(spec, path)
    argv = ["check-coupling", "--spec", str(path)] + (["--exact"] if mode == "exact" else [])
    return _digests_with_stdout(argv, root / name / mode)


def run_scenario_export(root: Path, name: str) -> dict:
    return _digests_with_stdout(["scenario", "--name", name], root / "scenario" / name)


def coupling_digests(root: Path) -> dict:
    return {f"coupling/{name}/{mode}": run_coupling_case(root, name, spec, mode)
            for name, spec in coupling_specs().items() for mode in COUPLING_MODES}


@pytest.mark.parametrize("mode", COUPLING_MODES)
def test_check_coupling_matches_golden_digests(mode, tmp_path):
    digests = json.loads(DIGESTS.read_text())
    for name, spec in coupling_specs().items():
        _check(run_coupling_case(tmp_path, name, spec, mode), digests[f"coupling/{name}/{mode}"],
               f"check-coupling {name}, {mode}")


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_export_matches_golden_digests(name, tmp_path):
    want = json.loads(DIGESTS.read_text())[f"scenario/{name}"]
    _check(run_scenario_export(tmp_path, name), want, f"scenario {name}")


if __name__ == "__main__":
    import tempfile

    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    root.mkdir(parents=True, exist_ok=True)
    digests = {f"{s}/{r}": run_case(root, s, r) for s, r in CASES}
    digests.update({f"streams/{s}/{r}": run_stream_case(root, s, r) for s, r in CASES})
    digests.update(mc_digests())
    digests.update(coupling_digests(root))
    digests.update({f"scenario/{name}": run_scenario_export(root, name)
                    for name in scenario_names()})
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS} (outputs in {root})")
