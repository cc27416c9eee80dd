"""Ready-made experiment models with known exact answers.

Each scenario declares a model and its expected per-pair tables (exact
rationals where the model is rational, analytic floats for the quantum
reference).  Its name is its model's name, and its maximal CHSH values
are computed from the declared tables.  ``verify()`` recomputes the tables
by enumeration and raises ConstructionInvalid on any mismatch, so the
shipped instances cannot silently regress; the demo models with
hand-picked tables run this guard at build time.  The claims listed below
(CHSH bounds, no-signalling, signalling) follow from those verified
tables and are pinned by the tests.

The headline fixtures:

``lf``
    Perfectly correlated six-valued source with settings +-1 and
    responses ``a = x**l``, ``b = y**(l+1)``.  Outcomes are never zero,
    the correlator table is (1, 0, 0, -1) and every CHSH combination
    stays exactly at or below 2.
``lhvm-socks``
    Classical shared-coin baseline with a correlation knob ``p_same``;
    station B negates its sign at setting 2.  Obeys the CHSH bound and
    no-signalling under any parameters.
``m2-demo``
    Three-outcome model whose raw table is CHSH-classical but whose
    post-selected table violates CHSH maximally and signals: the
    surviving subensemble depends jointly on both settings.
``m3-demo``
    Correlated instrument variables (non-product joint per setting
    pair); the correlator table reaches S = 4 without any zeros.
``quantum``
    The analytic singlet reference at caller-chosen analyzer angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DiscreteDistribution,
    ExactResult,
    ExperimentModel,
    ModelVariant,
    ResponseTable,
    SettingPair,
    _as_fraction,
    enumerate_postselected,
    enumerate_raw,
)
from .errors import BellsimError, ConstructionInvalid
from .estimators import POSTSELECTED, RAW, chsh, correlation_set_from_exact

# Analyzer angles reaching the maximal quantum CHSH value 2*sqrt(2):
# station A at (0, pi/4), station B at (pi/8, 3*pi/8).
CANONICAL_ANGLES = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)


@dataclass(frozen=True)
class Scenario:
    description: str
    model: ExperimentModel
    expected_raw: dict                 # SettingPair -> ExactResult, in model.pairs() order
    expected_postselected: dict

    @property
    def name(self) -> str:
        return self.model.name

    @property
    def s_max_abs_raw(self):
        return self._s_max_abs(RAW, self.expected_raw)

    @property
    def s_max_abs_postselected(self):
        return self._s_max_abs(POSTSELECTED, self.expected_postselected)

    def _s_max_abs(self, conditioning, table):
        return chsh(correlation_set_from_exact(
            table, self.model.settings_a, self.model.settings_b, conditioning)).s_max_abs

    def verify(self) -> None:
        """Recompute the tables by enumeration; raise ConstructionInvalid on drift."""
        for label, table in ((RAW, self.expected_raw), (POSTSELECTED, self.expected_postselected)):
            missing = [tuple(sp) for sp in self.model.pairs() if sp not in table]
            if missing:
                raise ConstructionInvalid(
                    f"scenario {self.name}: expected {label} table lacks pairs {missing}")
        problems = []
        for sp in self.model.pairs():
            got_raw = enumerate_raw(self.model, sp)
            got_post = enumerate_postselected(self.model, sp)
            for label, got, want in (("raw", got_raw, self.expected_raw[sp]),
                                     ("postselected", got_post, self.expected_postselected[sp])):
                for field_name in ("e_ab", "e_a", "e_b", "c_xy"):
                    g = getattr(got, field_name)
                    w = getattr(want, field_name)
                    if g != w:
                        problems.append(
                            f"{label} {field_name}{tuple(sp)}: enumerated {float(g)}, "
                            f"expected {float(w)}")
        if problems:
            raise ConstructionInvalid(f"scenario {self.name}: " + "; ".join(problems))


def _point_instruments(settings):
    return {s: DiscreteDistribution.point(0) for s in settings}


def lf_scenario() -> Scenario:
    """Shared die value l in 1..6, settings +-1, a = x**l and b = y**(l+1).

    Both outcomes are always +-1, so raw and post-selected tables agree:
    correlators (1, 0, 0, -1) in pair order ((1,1), (1,-1), (-1,1),
    (-1,-1)), station marginals (1, 0) for setting (+1, -1), and a maximal
    CHSH combination of exactly 2.
    """
    lam = range(1, 7)
    settings = (1, -1)
    source = DiscreteDistribution.uniform([(l, l) for l in lam])
    responses_a = {x: ResponseTable({(l, 0): x ** l for l in lam}) for x in settings}
    responses_b = {y: ResponseTable({(l, 0): y ** (l + 1) for l in lam}) for y in settings}
    model = ExperimentModel(
        ModelVariant.LHVM, settings, settings, source=source,
        instruments_a=_point_instruments(settings), instruments_b=_point_instruments(settings),
        responses_a=responses_a, responses_b=responses_b, name="lf")
    one = Fraction(1)
    zero = Fraction(0)
    table = {
        SettingPair(1, 1): ExactResult(one, one, one, one),
        SettingPair(1, -1): ExactResult(zero, one, zero, one),
        SettingPair(-1, 1): ExactResult(zero, zero, one, one),
        SettingPair(-1, -1): ExactResult(-one, zero, zero, one),
    }
    return Scenario(
        description="deterministic die-valued source; correlators (1, 0, 0, -1), CHSH exactly 2",
        model=model,
        expected_raw=table,
        expected_postselected=table,
    )


def lhvm_socks_scenario(p_same=Fraction(3, 4)) -> Scenario:
    """Classical baseline: two stations read correlated +-1 coin values.

    The source emits a pair of signs that agree with probability
    ``p_same``; responses pass the local sign through, except that station
    B negates it at setting 2.  Every correlator is (2*p_same - 1) times
    the sign of B's setting, so the CHSH bound 2 holds with room to spare
    and marginals are setting-independent.
    """
    try:
        p_same = _as_fraction(p_same)
    except (ValueError, OverflowError):     # NaN and the infinities have no Fraction
        raise BellsimError("p_same must be within [0, 1]") from None
    if not 0 <= p_same <= 1:
        raise BellsimError("p_same must be within [0, 1]")
    settings = (1, 2)
    half_same = p_same / 2
    half_diff = (1 - p_same) / 2
    source = DiscreteDistribution(
        [(1, 1), (-1, -1), (1, -1), (-1, 1)],
        [half_same, half_same, half_diff, half_diff])
    sign_b = {1: 1, 2: -1}
    responses_a = {x: ResponseTable({(s, 0): s for s in (1, -1)}) for x in settings}
    responses_b = {y: ResponseTable({(s, 0): sign_b[y] * s for s in (1, -1)}) for y in settings}
    model = ExperimentModel(
        ModelVariant.LHVM, settings, settings, source=source,
        instruments_a=_point_instruments(settings), instruments_b=_point_instruments(settings),
        responses_a=responses_a, responses_b=responses_b, name="lhvm-socks")
    q = 2 * p_same - 1
    table = {sp: ExactResult(e_ab=q * sign_b[sp.y], e_a=Fraction(0), e_b=Fraction(0),
                             c_xy=Fraction(1))
             for sp in model.pairs()}
    return Scenario(
        description="shared-coin classical model with correlation knob p_same",
        model=model,
        expected_raw=table,
        expected_postselected=table,
    )


# Hand-picked three-outcome tables for the post-selection demonstration.
# The shared value l in 1..4 selects which setting pair can survive
# post-selection: base outcomes are zero except on the diagonal blocks
# below, so the surviving subensemble at (x, y) is a single l with a
# deterministic product.  An instrument gate (value 1 keeps the base
# outcome, 0 blanks it) thins detections at setting-dependent rates
# without touching the surviving products.
_M2_BASE_A = {1: {1: 1, 2: -1, 3: 0, 4: 0}, 2: {1: 0, 2: 0, 3: 1, 4: -1}}
_M2_BASE_B = {1: {1: 1, 2: 0, 3: 1, 4: 0}, 2: {1: 0, 2: -1, 3: 0, 4: 1}}
_M2_GATE_A = {1: Fraction(3, 4), 2: Fraction(1, 2)}
_M2_GATE_B = {1: Fraction(2, 3), 2: Fraction(1, 2)}


def m2_demo_scenario() -> Scenario:
    """Post-selection flips a CHSH-classical raw table into S = 4 plus signalling.

    Raw averages keep the zeros and stay far below the CHSH bound; the
    post-selected table is the extremal box (1, 1, 1, -1) and station A's
    conditional marginal swings from +1 to -1 when only station B's
    setting changes.  Verified by exhaustive enumeration at build time.
    """
    lam = (1, 2, 3, 4)
    settings = (1, 2)
    source = DiscreteDistribution.uniform([(l, l) for l in lam])
    instruments_a = {x: DiscreteDistribution((1, 0), (p, 1 - p))
                     for x, p in _M2_GATE_A.items()}
    instruments_b = {y: DiscreteDistribution((1, 0), (p, 1 - p))
                     for y, p in _M2_GATE_B.items()}
    responses_a = {x: ResponseTable({(l, g): _M2_BASE_A[x][l] if g == 1 else 0
                                     for l in lam for g in (0, 1)})
                   for x in settings}
    responses_b = {y: ResponseTable({(l, g): _M2_BASE_B[y][l] if g == 1 else 0
                                     for l in lam for g in (0, 1)})
                   for y in settings}
    model = ExperimentModel(ModelVariant.M2, settings, settings, source=source,
                            instruments_a=instruments_a, instruments_b=instruments_b,
                            responses_a=responses_a, responses_b=responses_b, name="m2-demo")

    quarter = Fraction(1, 4)
    expected_raw = {}
    expected_post = {}
    for sp in model.pairs():
        x, y = sp
        qa, qb = _M2_GATE_A[x], _M2_GATE_B[y]
        base_ab = sum(_M2_BASE_A[x][l] * _M2_BASE_B[y][l] for l in lam)
        base_a = sum(_M2_BASE_A[x][l] for l in lam)
        base_b = sum(_M2_BASE_B[y][l] for l in lam)
        surviving = [l for l in lam if _M2_BASE_A[x][l] != 0 and _M2_BASE_B[y][l] != 0]
        c = qa * qb * Fraction(len(surviving), len(lam))
        expected_raw[sp] = ExactResult(
            e_ab=qa * qb * base_ab * quarter,
            e_a=qa * base_a * quarter,
            e_b=qb * base_b * quarter,
            c_xy=c)
        expected_post[sp] = ExactResult(
            e_ab=Fraction(sum(_M2_BASE_A[x][l] * _M2_BASE_B[y][l] for l in surviving),
                          len(surviving)),
            e_a=Fraction(sum(_M2_BASE_A[x][l] for l in surviving), len(surviving)),
            e_b=Fraction(sum(_M2_BASE_B[y][l] for l in surviving), len(surviving)),
            c_xy=c)
    scenario = Scenario(
        description="raw table classical, post-selected table at S = 4 with signalling",
        model=model,
        expected_raw=expected_raw,
        expected_postselected=expected_post,
    )
    scenario.verify()
    return scenario


def m3_demo_scenario() -> Scenario:
    """Correlated instrument variables push the correlators to S = 4.

    The source sends a shared bit; each station's response is the parity
    sign of its source bit and its instrument bit.  Per setting pair the
    two instrument bits are drawn perfectly correlated, except at (2, 2)
    where they are perfectly anti-correlated, so the correlator table is
    (1, 1, 1, -1) with uniform instrument marginals everywhere and no
    zeros.  Verified by enumeration at build time.
    """
    settings = (1, 2)
    source = DiscreteDistribution.uniform([(0, 0), (1, 1)])
    equal = DiscreteDistribution(((0, 0), (1, 1)), (Fraction(1, 2), Fraction(1, 2)))
    opposite = DiscreteDistribution(((0, 1), (1, 0)), (Fraction(1, 2), Fraction(1, 2)))
    joints = {
        SettingPair(1, 1): equal,
        SettingPair(1, 2): equal,
        SettingPair(2, 1): equal,
        SettingPair(2, 2): opposite,
    }
    parity = ResponseTable({(s, i): 1 - 2 * ((s + i) % 2)
                            for s in (0, 1) for i in (0, 1)})
    model = ExperimentModel(
        ModelVariant.M3, settings, settings, source=source, instruments_joint=joints,
        responses_a=dict.fromkeys(settings, parity), responses_b=dict.fromkeys(settings, parity),
        name="m3-demo")
    one = Fraction(1)
    zero = Fraction(0)
    table = {
        SettingPair(1, 1): ExactResult(one, zero, zero, one),
        SettingPair(1, 2): ExactResult(one, zero, zero, one),
        SettingPair(2, 1): ExactResult(one, zero, zero, one),
        SettingPair(2, 2): ExactResult(-one, zero, zero, one),
    }
    scenario = Scenario(
        description="non-product instrument joints; correlators (1, 1, 1, -1), S = 4",
        model=model,
        expected_raw=table,
        expected_postselected=table,
    )
    scenario.verify()
    return scenario


def quantum_scenario(angles=CANONICAL_ANGLES) -> Scenario:
    """Analytic singlet reference at analyzer angles (a1, a2, b1, b2).

    The angles go to the model as given and the expected table is the
    model's own enumeration, so any angle ``validate_model`` rejects (not
    an int or float, NaN, infinite, or with an infinite difference) raises
    InvalidModel.
    """
    a1, a2, b1, b2 = angles
    settings = (1, 2)
    model = ExperimentModel(ModelVariant.QUANTUM, settings, settings,
                            angles_a={1: a1, 2: a2}, angles_b={1: b1, 2: b2}, name="quantum")
    table = {sp: enumerate_raw(model, sp) for sp in model.pairs()}
    return Scenario(
        description="ideal polarization-singlet correlations at fixed analyzer angles",
        model=model,
        expected_raw=table,
        expected_postselected=table,
    )


_REGISTRY = {
    "lf": lf_scenario,
    "lhvm-socks": lhvm_socks_scenario,
    "m2-demo": m2_demo_scenario,
    "m3-demo": m3_demo_scenario,
    "quantum": quantum_scenario,
}


def scenario_names() -> list[str]:
    return sorted(_REGISTRY)


def build_scenario(name: str, p_same=None) -> Scenario:
    """Build a shipped scenario by name.

    ``p_same`` overrides the correlation knob of ``lhvm-socks`` and is
    rejected for scenarios that have no such parameter.
    """
    if name not in _REGISTRY:
        raise BellsimError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}")
    if p_same is not None:
        if name != "lhvm-socks":
            raise BellsimError(f"scenario {name!r} takes no p_same parameter")
        return lhvm_socks_scenario(p_same)
    return _REGISTRY[name]()
