"""The 2x2 pair order and the four no-signalling contrasts, defined once in
`core`, against the hand-written copies that each report spelled out
before (kept in ``helpers``): the no-signalling report, the coupling's
marginal-consistency check, its moment system and decision, and the
moments of an explicit joint must all be equal, ``==``, to the oracles'."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bellsim.core import (
    DiscreteDistribution,
    ExactResult,
    SettingPair,
    enumerate_postselected,
    enumerate_raw,
    marginal_contrasts,
    pair_order,
)
from bellsim.coupling import (
    ATOMS,
    MOMENT_TOL,
    JointSpec,
    _moment_system,
    coupling_feasibility,
    joint_moments,
    marginal_consistency,
    random_consistent_spec,
)
from bellsim.estimators import (
    POSTSELECTED,
    RAW,
    correlation_set_from_exact,
    estimate_postselected,
    estimate_raw,
    no_signalling,
)
from bellsim.scenarios import build_scenario, scenario_names
from bellsim.streams import CoincidenceRecords

from helpers import (
    oracle_coupling_feasibility,
    oracle_joint_moments,
    oracle_marginal_consistency,
    oracle_moment_system,
    oracle_no_signalling,
    record_rows,
)

SETTING_LABELS = [((1, 2), (1, 2)), ((1, -1), (1, -1)), (("b", "a"), (2, 1)),
                  ((2.5, "x"), ((0, 1), 0))]
OUTCOME_PAIRS = [(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)]


@pytest.mark.parametrize("settings_a, settings_b", [
    ((1, 2), (1, 2)), (("b", "a", "c"), (2, 1)), ((7,), ("p", "q", "r", "s"))])
def test_pair_order_puts_the_pair_of_positions_x_y_at_x_times_b_plus_y(settings_a, settings_b):
    order = pair_order(settings_a, settings_b)
    assert len(order) == len(settings_a) * len(settings_b)
    for x, sa in enumerate(settings_a):
        for y, sb in enumerate(settings_b):
            assert order[x * len(settings_b) + y] == SettingPair(sa, sb)


def test_marginal_contrasts_in_sign_quadruple_slot_order():
    assert marginal_contrasts(("p", "q"), (2, 1)) == (
        ("A", "p", (2, 1), SettingPair("p", 2), SettingPair("p", 1)),
        ("A", "q", (2, 1), SettingPair("q", 2), SettingPair("q", 1)),
        ("B", 2, ("p", "q"), SettingPair("p", 2), SettingPair("q", 2)),
        ("B", 1, ("p", "q"), SettingPair("p", 1), SettingPair("q", 1)),
    )


@st.composite
def specs(draw):
    """A random consistent spec, with float or small-denominator Fraction
    values, and sometimes one marginal moved by an amount around
    ``MOMENT_TOL`` or far past it."""
    settings_a, settings_b = draw(st.sampled_from(SETTING_LABELS))
    spec = random_consistent_spec(random.Random(draw(st.integers(0, 2 ** 32))),
                                  zero_marginals=draw(st.booleans()))
    # The spec's values by position in the pair order, under the drawn labels.
    pairs = pair_order(settings_a, settings_b)
    relabel = dict(zip(spec.pairs(), pairs))
    tables = {label: {relabel[sp]: v for sp, v in getattr(spec, label).items()}
              for label in ("e_ab", "e_a", "e_b")}
    if draw(st.booleans()):
        table = tables[draw(st.sampled_from(("e_a", "e_b")))]
        sp = draw(st.sampled_from(pairs))
        shift = draw(st.sampled_from((MOMENT_TOL / 2, 2 * MOMENT_TOL, 1e-3, 0.25)))
        table[sp] = max(-1.0, min(1.0, table[sp] + draw(st.sampled_from((-1, 1))) * shift))
    if draw(st.booleans()):
        denominator = draw(st.sampled_from((4, 12, 1000)))
        tables = {label: {sp: Fraction(v).limit_denominator(denominator)
                          for sp, v in table.items()}
                  for label, table in tables.items()}
    return JointSpec(settings_a, settings_b, tables["e_ab"], tables["e_a"], tables["e_b"])


@settings(max_examples=150)
@given(spec=specs())
def test_coupling_equals_the_hand_written_oracles(spec):
    assert marginal_consistency(spec) == oracle_marginal_consistency(spec)
    exact = isinstance(spec.e_ab[spec.pairs()[0]], Fraction)
    for mode in {False, exact}:
        assert marginal_consistency(spec, mode) == oracle_marginal_consistency(spec, mode)
        assert _moment_system(spec, mode) == oracle_moment_system(spec, mode)
        assert coupling_feasibility(spec, mode) == oracle_coupling_feasibility(spec, mode)


@settings(max_examples=60)
@given(settings_ab=st.sampled_from(SETTING_LABELS),
       probs=st.lists(st.integers(0, 5), min_size=len(ATOMS), max_size=len(ATOMS))
       .filter(any))
def test_joint_moments_equal_the_oracle(settings_ab, probs):
    dist = DiscreteDistribution(ATOMS, [Fraction(p, sum(probs)) for p in probs])
    assert joint_moments(dist, *settings_ab) == oracle_joint_moments(dist, *settings_ab)


@pytest.mark.parametrize("name", scenario_names())
def test_witnesses_and_scenario_moments_equal_the_oracle(name):
    model = build_scenario(name).model
    for enumerate_ in (enumerate_raw, enumerate_postselected):
        results = {sp: enumerate_(model, sp) for sp in model.pairs()}
        spec = JointSpec.from_exact_results(results, model.settings_a, model.settings_b)
        got = coupling_feasibility(spec, exact=True)
        assert got == oracle_coupling_feasibility(spec, exact=True)
        if got.feasible:
            assert (joint_moments(got.witness, model.settings_a, model.settings_b)
                    == oracle_joint_moments(got.witness, model.settings_a, model.settings_b))


@settings(max_examples=100)
@given(settings_ab=st.sampled_from(SETTING_LABELS),
       cells=st.lists(st.lists(st.sampled_from(OUTCOME_PAIRS), min_size=0, max_size=12),
                      min_size=4, max_size=4))
def test_estimated_no_signalling_equals_the_oracle(settings_ab, cells):
    rows = []
    for sp, outcomes in zip(pair_order(*settings_ab), cells):
        # One record where both stations clicked keeps every post-selected cell filled.
        rows += record_rows(sp, [(1, -1)] + outcomes)
    records = CoincidenceRecords.from_rows(rows)
    for estimate in (estimate_raw, estimate_postselected):
        cs = estimate(records)
        assert no_signalling(cs) == oracle_no_signalling(cs)


@settings(max_examples=100)
@given(settings_ab=st.sampled_from(SETTING_LABELS),
       values=st.lists(st.fractions(-1, 1, max_denominator=8) | st.floats(-1, 1),
                       min_size=12, max_size=12))
def test_exact_no_signalling_equals_the_oracle(settings_ab, values):
    results = {sp: ExactResult(*values[3 * k:3 * k + 3], c_xy=Fraction(1))
               for k, sp in enumerate(pair_order(*settings_ab))}
    for conditioning in (RAW, POSTSELECTED):
        cs = correlation_set_from_exact(results, *settings_ab, conditioning)
        assert no_signalling(cs) == oracle_no_signalling(cs)
