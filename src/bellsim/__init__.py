"""Simulation and analysis of two-station correlation experiments.

The package covers the full loop: define or load a hidden-variable model,
evaluate it exactly or by seeded Monte Carlo, generate time-tagged click
streams, pair them into coincidence windows, estimate raw and
post-selected correlations with CHSH and no-signalling reports, and test
whether a set of observed moments admits a single joint distribution.
"""

from .core import (
    DiscreteDistribution,
    ExactResult,
    ExperimentModel,
    ModelVariant,
    Outcome,
    ResponseTable,
    SamplerSpace,
    SettingPair,
    enumerate_postselected,
    enumerate_raw,
    quantum_reference_correlation,
    sample_trial,
    simulate_trials,
    validate_model,
)
from .coupling import (
    CouplingResult,
    JointSpec,
    chsh_characterization,
    coupling_feasibility,
    joint_moments,
    lf_coupling,
    marginal_consistency,
)
from .errors import (
    BellsimError,
    ConstructionInvalid,
    DegenerateConditioning,
    EmptyCell,
    InvalidModel,
    MissingPair,
    NonFiniteSpace,
    NonMonotonicTimestamps,
    ParseError,
    SettingConflict,
    UnsortedStream,
)
from .estimators import (
    ChshReport,
    CorrelationSet,
    NoSignallingReport,
    chsh,
    correlation_set_from_exact,
    estimate_postselected,
    estimate_raw,
    no_signalling,
)
from .scenarios import (
    CANONICAL_ANGLES,
    Scenario,
    build_scenario,
    lf_scenario,
    lhvm_socks_scenario,
    m2_demo_scenario,
    m3_demo_scenario,
    quantum_scenario,
    scenario_names,
)
from .streams import (
    ClickStream,
    CoincidenceRecord,
    CoincidenceRecords,
    FixedSettings,
    RandomSettings,
    RoundRobinSettings,
    Schedule,
    WindowSettings,
    generate_streams,
    ingest_timetag_file,
    pair_coincidences,
    schedule_settings,
)

__version__ = "0.1.0"
