"""Simulation and analysis of two-station correlation experiments.

The package covers the full loop: define or load a hidden-variable model,
evaluate it exactly or by seeded Monte Carlo, generate time-tagged click
streams, pair them into coincidence windows, estimate raw and
post-selected correlations with CHSH and no-signalling reports, and test
whether a set of observed moments admits a single joint distribution.

The names below are imported from their home module on first use
(PEP 562), so that ``import bellsim.cli`` loads only the modules a
command needs.
"""

import importlib

_EXPORTS = {
    "core": (
        "ExperimentModel",
        "ModelVariant",
        "Outcome",
        "ResponseTable",
        "enumerate_postselected",
        "enumerate_raw",
        "quantum_reference_correlation",
        "validate_model",
    ),
    "coupling": (
        "CouplingResult",
        "JointSpec",
        "chsh_characterization",
        "coupling_feasibility",
        "joint_moments",
        "lf_coupling",
        "marginal_consistency",
    ),
    "errors": (
        "BellsimError",
        "ConstructionInvalid",
        "DegenerateConditioning",
        "EmptyCell",
        "InvalidModel",
        "MissingPair",
        "NonFiniteSpace",
        "NonMonotonicTimestamps",
        "ParseError",
        "SettingConflict",
        "UnsortedStream",
    ),
    "estimators": (
        "ChshReport",
        "CorrelationSet",
        "NoSignallingReport",
        "chsh",
        "correlation_set_from_exact",
        "estimate_postselected",
        "estimate_raw",
        "no_signalling",
    ),
    "scenarios": (
        "CANONICAL_ANGLES",
        "Scenario",
        "build_scenario",
        "lf_scenario",
        "lhvm_socks_scenario",
        "m2_demo_scenario",
        "m3_demo_scenario",
        "quantum_scenario",
        "scenario_names",
    ),
    "streams": (
        "ClickStream",
        "CoincidenceRecord",
        "CoincidenceRecords",
        "FixedSettings",
        "RandomSettings",
        "RoundRobinSettings",
        "Schedule",
        "WindowSettings",
        "generate_streams",
        "ingest_timetag_file",
        "pair_coincidences",
        "schedule_settings",
    ),
    "tables": (
        "DiscreteDistribution",
        "ExactResult",
        "SettingPair",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(("cli", "core", "coupling", "errors", "estimators", "modelio",
                         "rng", "scenarios", "streams", "tables", "textio"))

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
