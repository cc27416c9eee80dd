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

After a change that alters output on purpose, rewrite the digests with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from bellsim.cli import main
from bellsim.scenarios import scenario_names

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


if __name__ == "__main__":
    import tempfile

    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    root.mkdir(parents=True, exist_ok=True)
    digests = {f"{s}/{r}": run_case(root, s, r) for s, r in CASES}
    digests.update({f"streams/{s}/{r}": run_stream_case(root, s, r) for s, r in CASES})
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS} (outputs in {root})")
