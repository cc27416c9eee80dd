"""The package namespace resolves its names lazily, and ``simulate`` on a
shipped scenario imports only the modules it uses."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bellsim

# Every name ``bellsim`` exported before its names became lazy, by home module.
EXPORTS = {
    "core": ["DiscreteDistribution", "ExactResult", "ExperimentModel", "ModelVariant", "Outcome",
             "ResponseTable", "SamplerSpace", "SettingPair", "enumerate_postselected",
             "enumerate_raw", "quantum_reference_correlation", "sample_trial", "simulate_trials",
             "validate_model"],
    "coupling": ["CouplingResult", "JointSpec", "chsh_characterization", "coupling_feasibility",
                 "joint_moments", "lf_coupling", "marginal_consistency"],
    "errors": ["BellsimError", "ConstructionInvalid", "DegenerateConditioning", "EmptyCell",
               "InvalidModel", "MissingPair", "NonFiniteSpace", "NonMonotonicTimestamps",
               "ParseError", "SettingConflict", "UnsortedStream"],
    "estimators": ["ChshReport", "CorrelationSet", "NoSignallingReport", "chsh",
                   "correlation_set_from_exact", "estimate_postselected", "estimate_raw",
                   "no_signalling"],
    "scenarios": ["CANONICAL_ANGLES", "Scenario", "build_scenario", "lf_scenario",
                  "lhvm_socks_scenario", "m2_demo_scenario", "m3_demo_scenario",
                  "quantum_scenario", "scenario_names"],
    "streams": ["ClickStream", "CoincidenceRecord", "CoincidenceRecords", "FixedSettings",
                "RandomSettings", "RoundRobinSettings", "Schedule", "WindowSettings",
                "generate_streams", "ingest_timetag_file", "pair_coincidences",
                "schedule_settings"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_every_export_is_its_home_modules_object(module, name):
    assert getattr(bellsim, name) is getattr(importlib.import_module(f"bellsim.{module}"), name)


def test_all_and_dir_list_every_export():
    assert sorted(bellsim.__all__) == NAMES
    assert set(NAMES) <= set(dir(bellsim))
    namespace = {}
    exec("from bellsim import *", namespace)
    assert {name for name in namespace if not name.startswith("__")} == set(NAMES)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bellsim.no_such_name


def test_simulate_on_a_scenario_loads_neither_coupling_nor_a_thread_pool(tmp_path):
    src = Path(bellsim.__file__).parent.parent
    code = ("import json, sys\n"
            "from bellsim.cli import main\n"
            "code = main(['simulate', '--scenario', 'quantum', '--windows', '5000', '--seed', '1',"
            " '--threads', '2', '--out-dir', sys.argv[1]])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                          text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    exit_code, modules = json.loads(done.stdout.splitlines()[-1])
    assert exit_code == 0 and "bellsim.streams" in modules
    assert not {"bellsim.coupling", "bellsim.modelio", "concurrent.futures"} & set(modules)


def test_estimators_do_not_import_streams():
    """The estimators read only the count tables of the records they are
    given, so the statistics layer loads without the stream layer."""
    src = Path(bellsim.__file__).parent.parent
    code = "import json, sys, bellsim.estimators; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    modules = json.loads(done.stdout)
    assert "bellsim.estimators" in modules and "bellsim.streams" not in modules
