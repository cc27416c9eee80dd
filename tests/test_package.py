"""The package namespace resolves its names lazily, ``simulate`` on a
shipped scenario imports only the modules it uses, and the coupling and
statistics layers load without numpy."""

import importlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bellsim
from bellsim.tables import _as_fraction

from helpers import oracle_as_fraction

# Every name ``bellsim`` exported before its names became lazy, by home module.
EXPORTS = {
    "core": ["DiscreteDistribution", "ExactResult", "ExperimentModel", "ModelVariant", "Outcome",
             "ResponseTable", "SettingPair", "enumerate_postselected", "enumerate_raw",
             "quantum_reference_correlation", "validate_model"],
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


def test_core_loads_neither_streams_nor_rng():
    """Monte Carlo lives in ``streams``; the model layer and exact
    enumeration load without it and without the seed tree."""
    src = Path(bellsim.__file__).parent.parent
    code = "import json, sys, bellsim.core; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    modules = json.loads(done.stdout)
    assert "bellsim.core" in modules
    assert not {"bellsim.streams", "bellsim.rng"} & set(modules)


def test_coupling_and_estimators_load_and_decide_without_numpy(tmp_path):
    """The model layer's table algebra lives in ``tables``, which imports no
    numpy: importing ``coupling`` and ``estimators`` and deciding a spec
    file exactly, as ``check-coupling --exact`` does, never loads it."""
    src = Path(bellsim.__file__).parent.parent
    code = ("import json, sys\n"
            "import bellsim.coupling as c, bellsim.estimators\n"
            "from bellsim.tables import _as_fraction\n"
            "c.save_jointspec(c.joint_moments(c.lf_coupling(), (1, -1), (1, -1)), sys.argv[1])\n"
            "result = c.coupling_feasibility(c.load_jointspec(sys.argv[1]), exact=True)\n"
            "payload = c.coupling_result_to_dict(result)\n"
            "try:\n"
            "    _as_fraction(True)\n"
            "    refused = False\n"
            "except TypeError:\n"
            "    refused = True\n"
            "print(json.dumps([payload['feasible'], refused, sorted(sys.modules)]))\n")
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "spec.json")],
                          capture_output=True, text=True, timeout=120, check=True,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    feasible, refused, modules = json.loads(done.stdout)
    assert feasible and refused
    assert {"bellsim.coupling", "bellsim.estimators", "bellsim.tables"} <= set(modules)
    assert not {"numpy", "bellsim.core"} & set(modules)


@pytest.mark.parametrize("name", ["PROB_TOL", "SettingPair", "ExactResult", "DiscreteDistribution",
                                  "_as_fraction", "_hashable", "table_sums", "pair_order",
                                  "marginal_contrasts", "chsh_values"])
def test_core_reexports_the_table_algebra(name):
    """Each name is defined once, in ``tables``, and ``core`` hands out the
    same object."""
    tables = importlib.import_module("bellsim.tables")
    assert getattr(importlib.import_module("bellsim.core"), name) is getattr(tables, name)
    assert getattr(getattr(tables, name), "__module__", "bellsim.tables") == "bellsim.tables"


class _Int(int):
    pass


class _Float(float):
    pass


NUMPY_SCALARS = sorted({t for t in np.sctypeDict.values()
                        if issubclass(t, (np.integer, np.floating))}, key=lambda t: t.__name__)
VALUES = ([0, 1, -7, 10 ** 30, _Int(3), True, False, np.bool_(True), np.bool_(False),
           0.5, -0.0, 0.1, 1e300, float("nan"), float("inf"), float("-inf"), _Float(0.25),
           Fraction(1, 3), Fraction(-5, 2), "1/2", "1", Decimal("0.5"), complex(1, 0), 1j,
           None, np.array(1), np.array(0.5)]
          + [t(v) for t in NUMPY_SCALARS for v in (0, 3)]
          + [t(v) for t in NUMPY_SCALARS if issubclass(t, np.floating)
             for v in (0.1, -2.5, "nan", "inf")])


def _converted(convert, value):
    try:
        result = convert(value)
    except Exception as exc:        # compared by class
        return type(exc)
    return type(result), result


def test_as_fraction_returns_a_fraction_subclass_unchanged():
    class _Fraction(Fraction):
        pass

    value = _Fraction(1, 3)
    assert _as_fraction(value) is value


@pytest.mark.parametrize("value", VALUES, ids=lambda v: f"{type(v).__name__}-{v!r}")
def test_as_fraction_matches_the_numpy_oracle(value):
    """The numpy-free ``_as_fraction`` accepts and refuses what the one
    that tested numpy's types directly did, with the same value or the
    same exception class."""
    assert _converted(_as_fraction, value) == _converted(oracle_as_fraction, value)
