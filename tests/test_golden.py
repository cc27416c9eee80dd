"""Golden outputs of ``bellsim simulate`` and ``bellsim analyze``.

Every scenario runs under every setting rule for 5000 windows, which
crosses the 4096-window chunk edge, at a fixed seed; ``analyze
--coincidences`` then re-reads the run's ``coincidences.csv``.  The sha256
digest of every file the two commands write must equal the one committed
in ``golden_digests.json``.

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
SEED = 1964


def run_case(root: Path, scenario: str, rule: str) -> dict:
    """Run one scenario under one rule inside ``root``; digest every output.

    Paths handed to the CLI are relative to ``root``, so the reports, which
    name their input file, do not depend on where ``root`` is.
    """
    case = Path(scenario, rule)
    simulate = ["simulate", "--scenario", scenario, "--windows", str(WINDOWS),
                "--setting-rule", rule, "--seed", str(SEED),
                "--out-dir", str(case / "simulate")]
    if rule == "fixed":
        simulate += ["--x", "1", "--y", "1"]
    analyze = ["analyze", "--coincidences", str(case / "simulate" / "coincidences.csv"),
               "--out-dir", str(case / "analyze")]
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(simulate) == 0, f"{scenario}, rule {rule}: simulate failed"
            assert main(analyze) == 0, f"{scenario}, rule {rule}: analyze failed"
    finally:
        os.chdir(cwd)
    return {
        path.relative_to(root / case).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((root / case).rglob("*")) if path.is_file()
    }


CASES = [(scenario, rule) for scenario in scenario_names() for rule in RULES]


@pytest.mark.parametrize("scenario, rule", CASES, ids=[f"{s}-{r}" for s, r in CASES])
def test_outputs_match_golden_digests(scenario, rule, tmp_path):
    want = json.loads(DIGESTS.read_text())[f"{scenario}/{rule}"]
    got = run_case(tmp_path, scenario, rule)
    assert sorted(got) == sorted(want), f"{scenario}, rule {rule}: set of output files differs"
    for name in want:
        assert got[name] == want[name], f"{scenario}, rule {rule}: {name} differs"


if __name__ == "__main__":
    import tempfile

    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    root.mkdir(parents=True, exist_ok=True)
    digests = {f"{s}/{r}": run_case(root, s, r) for s, r in CASES}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS} (outputs in {root})")
